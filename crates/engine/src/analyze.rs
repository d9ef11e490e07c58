//! Semantic analysis: resolving a parsed query against a store.
//!
//! Analysis (a) validates the query — variable kinds are consistent,
//! subjects are processes, operations exist and fit their object kinds,
//! temporal relations reference declared events, every attribute a
//! constraint names exists on its owner — (b) lowers textual constraints to
//! typed [`EntityConstraint`]s: string literals with wildcards become
//! `LIKE` patterns, IP-attribute strings parse to addresses, and exact
//! strings resolve through the store's dictionary (an exact string absent
//! from the dictionary makes the constraint *unsatisfiable*, which the
//! scheduler exploits as maximal pruning power), and (c) compiles the
//! projection and resolves `order by` to returned columns. Analysis is the
//! one name resolver: a query that names something the schema lacks is an
//! error here, whether or not anything would match.

use std::collections::HashMap;

use aiql_lang::{
    AnomalyQuery, AttrConstraint, CmpOp, DeclConstraint, EntityDecl, Expr, Literal,
    MultieventQuery, ReturnClause, SortDir, TemporalOp, WindowSpec,
};
use aiql_model::{
    AgentId, Attr, EntityKind, Interner, IpV4, Operation, StringPattern, TimeWindow, Value,
};
use aiql_storage::{AttrCmp, EntityConstraint, EventStore, OpSet};

use crate::error::EngineError;
use crate::op::project::compile_projection;
use crate::op::CompiledProjection;

/// A query variable with its merged constraints from every declaration site.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source variable name.
    pub name: String,
    /// Resolved entity kind.
    pub kind: EntityKind,
    /// Conjunction of all constraints on the variable.
    pub constraints: Vec<EntityConstraint>,
    /// True when some constraint can never match (e.g. an exact name not
    /// present in the dictionary).
    pub unsatisfiable: bool,
}

/// One analyzed event pattern.
#[derive(Debug, Clone)]
pub struct AnalyzedPattern {
    /// Position in the query (execution may reorder; results do not).
    pub index: usize,
    /// Event variable name (synthesized `evtN` when the query omits `as`).
    pub name: String,
    /// Subject variable index into [`AnalyzedMultievent::vars`].
    pub subject: usize,
    /// Object variable index.
    pub object: usize,
    /// Operations to match.
    pub ops: OpSet,
}

/// Analyzed global clause.
#[derive(Debug, Clone)]
pub struct AnalyzedGlobals {
    /// Temporal constraint.
    pub window: TimeWindow,
    /// Spatial constraint (`None` = all hosts; `Some([])` = unsatisfiable).
    pub agents: Option<Vec<AgentId>>,
    /// Event-level residual predicates (attr, op, value) checked per event.
    pub residual: Vec<(String, CmpOp, Value)>,
}

/// A temporal relationship between two pattern indices.
#[derive(Debug, Clone)]
pub struct TemporalConstraint {
    /// Index of the left pattern.
    pub left: usize,
    /// The operator.
    pub op: TemporalOp,
    /// Index of the right pattern.
    pub right: usize,
}

/// One temporal relation of a join step, resolved against the set of
/// already-placed patterns: `other` is the placed pattern on the far side,
/// `cand_is_left` says which side the step's candidate occupies, and
/// `bound` is the optional gap bound in microseconds. `before` and `after`
/// normalize to the same left-ends-no-later-than-right-starts form the
/// join verifies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepRel {
    /// The already-placed pattern on the other side of the relation.
    pub(crate) other: usize,
    /// Whether the step's candidate is the *left* (earlier) event.
    pub(crate) cand_is_left: bool,
    /// Maximum gap between left end and right start, in microseconds.
    pub(crate) bound: Option<i64>,
}

/// A fully analyzed multievent query, ready for scheduling and execution.
#[derive(Debug, Clone)]
pub struct AnalyzedMultievent {
    /// All entity variables.
    pub vars: Vec<VarInfo>,
    /// All event patterns in source order.
    pub patterns: Vec<AnalyzedPattern>,
    /// Temporal relationships (pattern-index based).
    pub temporal: Vec<TemporalConstraint>,
    /// Global constraints.
    pub globals: AnalyzedGlobals,
    /// Projection (the AST; analysis also compiled it, every name resolved
    /// to a slot).
    pub ret: ReturnClause,
    /// Grouping keys.
    pub group_by: Vec<Expr>,
    /// Post-aggregation filter.
    pub having: Option<Expr>,
    /// Ordering keys: the returned column each names, and its direction.
    pub order_by: Vec<(usize, SortDir)>,
    /// Row limit.
    pub limit: Option<u64>,
    /// The projection, compiled: every name resolved to a slot.
    pub(crate) projection: CompiledProjection,
}

impl AnalyzedMultievent {
    /// The temporal relations the join step placing pattern `i` must
    /// verify, given which patterns are already placed — the statically
    /// known subset the per-tuple probe checks (self-relations and
    /// relations to unplaced patterns never fire at this step).
    pub(crate) fn step_relations(&self, i: usize, placed: &[bool]) -> Vec<StepRel> {
        let mut rels = Vec::new();
        for rel in &self.temporal {
            let (l, r, bound) = match &rel.op {
                TemporalOp::Before(b) => (rel.left, rel.right, *b),
                // (after is before with sides swapped)
                TemporalOp::After(b) => (rel.right, rel.left, *b),
            };
            let bound = bound.map(|d| d.micros());
            if l == i && r != i && placed[r] {
                rels.push(StepRel {
                    other: r,
                    cand_is_left: true,
                    bound,
                });
            } else if r == i && l != i && placed[l] {
                rels.push(StepRel {
                    other: l,
                    cand_is_left: false,
                    bound,
                });
            }
        }
        rels
    }
}

/// An analyzed anomaly query.
#[derive(Debug, Clone)]
pub struct AnalyzedAnomaly {
    /// The underlying single-pattern multievent skeleton.
    pub base: AnalyzedMultievent,
    /// Sliding-window specification.
    pub window_spec: WindowSpec,
}

/// Analyzes a multievent query against a store.
pub fn analyze_multievent(
    q: &MultieventQuery,
    store: &EventStore,
) -> Result<AnalyzedMultievent, EngineError> {
    analyze(q, store, false)
}

/// Analyzes a multievent query, or an anomaly query's single-pattern
/// skeleton (`anomaly`), whose projection binds aliases and reads history.
fn analyze(
    q: &MultieventQuery,
    store: &EventStore,
    anomaly: bool,
) -> Result<AnalyzedMultievent, EngineError> {
    let globals = analyze_globals(&q.globals, store.interner())?;
    let mut vars: Vec<VarInfo> = Vec::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    let mut patterns = Vec::with_capacity(q.patterns.len());
    let mut event_index: HashMap<String, usize> = HashMap::new();

    for (i, p) in q.patterns.iter().enumerate() {
        let subject = bind_var(&p.subject, &mut vars, &mut var_index, store.interner())?;
        if vars[subject].kind != EntityKind::Process {
            return Err(EngineError::Analysis(format!(
                "pattern {} subject `{}` must be a process",
                i + 1,
                p.subject.var
            )));
        }
        let object = bind_var(&p.object, &mut vars, &mut var_index, store.interner())?;
        let mut ops = OpSet::EMPTY;
        for op_name in &p.ops {
            let op = Operation::parse(op_name)
                .map_err(|_| EngineError::Analysis(format!("unknown operation `{op_name}`")))?;
            let object_kind = vars[object].kind;
            if !op.allowed_object_kinds().contains(&object_kind) {
                return Err(EngineError::Analysis(format!(
                    "operation `{op_name}` cannot target a {} entity (`{}`)",
                    object_kind.keyword(),
                    p.object.var
                )));
            }
            ops = ops.with(op);
        }
        let name = p.name.clone().unwrap_or_else(|| format!("evt{}", i + 1));
        if event_index.insert(name.clone(), i).is_some() {
            return Err(EngineError::Analysis(format!(
                "duplicate event variable `{name}`"
            )));
        }
        patterns.push(AnalyzedPattern {
            index: i,
            name,
            subject,
            object,
            ops,
        });
    }

    let mut temporal = Vec::with_capacity(q.temporal.len());
    for t in &q.temporal {
        let left = *event_index.get(&t.left).ok_or_else(|| {
            EngineError::Analysis(format!(
                "unknown event variable `{}` in with clause",
                t.left
            ))
        })?;
        let right = *event_index.get(&t.right).ok_or_else(|| {
            EngineError::Analysis(format!(
                "unknown event variable `{}` in with clause",
                t.right
            ))
        })?;
        if left == right {
            return Err(EngineError::Analysis(format!(
                "temporal relation relates `{}` to itself",
                t.left
            )));
        }
        temporal.push(TemporalConstraint {
            left,
            op: t.op.clone(),
            right,
        });
    }

    // Each order key must be a returned column or an item's alias.
    let order_by = (q.order_by.iter())
        .map(|o| {
            let col = q.ret.items.iter().position(|item| {
                item.expr == o.expr
                    || matches!((&o.expr, &item.alias),
                        (Expr::Ref { var, attr: None }, Some(alias)) if var == alias)
            });
            col.map(|c| (c, o.dir)).ok_or_else(|| {
                EngineError::Analysis("order by must reference a returned column or alias".into())
            })
        })
        .collect::<Result<_, _>>()?;

    let mut a = AnalyzedMultievent {
        vars,
        patterns,
        temporal,
        globals,
        ret: q.ret.clone(),
        group_by: q.group_by.clone(),
        having: q.having.clone(),
        order_by,
        limit: q.limit,
        projection: CompiledProjection::default(),
    };
    a.projection = compile_projection(store, &a, anomaly)?;
    Ok(a)
}

/// Analyzes an anomaly query (exactly one event pattern, a window spec, and
/// optional history references in `having`).
pub fn analyze_anomaly(
    q: &AnomalyQuery,
    store: &EventStore,
) -> Result<AnalyzedAnomaly, EngineError> {
    let window_spec = q
        .globals
        .window
        .ok_or_else(|| EngineError::Analysis("anomaly query requires a window spec".into()))?;
    if !window_spec.length.is_positive() || !window_spec.step.is_positive() {
        return Err(EngineError::Analysis(
            "window length and step must be positive".into(),
        ));
    }
    if q.patterns.len() != 1 {
        return Err(EngineError::Analysis(format!(
            "anomaly queries take exactly one event pattern, found {}",
            q.patterns.len()
        )));
    }
    let skeleton = MultieventQuery {
        globals: aiql_lang::Globals {
            at: q.globals.at.clone(),
            constraints: q.globals.constraints.clone(),
            window: None,
        },
        patterns: q.patterns.clone(),
        temporal: Vec::new(),
        ret: q.ret.clone(),
        group_by: q.group_by.clone(),
        having: q.having.clone(),
        order_by: Vec::new(),
        limit: None,
    };
    let base = analyze(&skeleton, store, true)?;
    Ok(AnalyzedAnomaly { base, window_spec })
}

fn bind_var(
    decl: &EntityDecl,
    vars: &mut Vec<VarInfo>,
    var_index: &mut HashMap<String, usize>,
    interner: &Interner,
) -> Result<usize, EngineError> {
    let kind = decl.kind.kind();
    let idx = match var_index.get(&decl.var) {
        Some(&i) => {
            if vars[i].kind != kind {
                return Err(EngineError::Analysis(format!(
                    "variable `{}` declared as both {} and {}",
                    decl.var,
                    vars[i].kind.keyword(),
                    kind.keyword()
                )));
            }
            i
        }
        None => {
            let i = vars.len();
            vars.push(VarInfo {
                name: decl.var.clone(),
                kind,
                constraints: Vec::new(),
                unsatisfiable: false,
            });
            var_index.insert(decl.var.clone(), i);
            i
        }
    };
    for c in &decl.constraints {
        let (attr, name, op, lit) = match c {
            DeclConstraint::Default(lit) => (kind.default_attr(), "", CmpOp::Eq, lit),
            DeclConstraint::Attr(AttrConstraint { attr, op, value }) => {
                (Attr::resolve(Some(kind), attr)?, attr.as_str(), *op, value)
            }
        };
        match lower_constraint(attr, name, op, lit, interner)? {
            Lowered::Constraint(ec) => vars[idx].constraints.push(ec),
            Lowered::AlwaysTrue => {}
            Lowered::AlwaysFalse => vars[idx].unsatisfiable = true,
        }
    }
    Ok(idx)
}

enum Lowered {
    Constraint(EntityConstraint),
    AlwaysTrue,
    AlwaysFalse,
}

/// Lowers a comparison of `attr` (spelled `name` in the query, empty for
/// the default-attribute shortcut) against a literal.
fn lower_constraint(
    attr: Attr,
    name: &str,
    op: CmpOp,
    lit: &Literal,
    interner: &Interner,
) -> Result<Lowered, EngineError> {
    let make = |cmp: AttrCmp| Lowered::Constraint(EntityConstraint { attr, cmp });
    let lowered = match lit {
        Literal::Str(s) => {
            // `_` alone does not make a pattern: artifact names routinely
            // contain underscores (`info_stealer`). Only `%` opts in to
            // LIKE matching (where `_` then acts as a one-char wildcard).
            let wild = s.contains('%');
            if matches!(attr, Attr::DstIp | Attr::SrcIp) {
                if wild {
                    if op != CmpOp::Eq {
                        return Err(EngineError::Analysis(format!(
                            "pattern constraint on `{name}` requires `=`"
                        )));
                    }
                    make(AttrCmp::Like(StringPattern::new(s)))
                } else {
                    let ip = IpV4::parse(s).map_err(EngineError::Model)?;
                    make(numeric_cmp(op, Value::Ip(ip)))
                }
            } else if wild {
                if op != CmpOp::Eq {
                    return Err(EngineError::Analysis(format!(
                        "pattern constraint {s:?} requires `=`"
                    )));
                }
                make(AttrCmp::Like(StringPattern::new(s)))
            } else {
                match op {
                    CmpOp::Eq => match interner.get(s) {
                        Some(sym) => make(AttrCmp::Eq(Value::Str(sym))),
                        // Exact string not in the dictionary: nothing matches.
                        None => Lowered::AlwaysFalse,
                    },
                    CmpOp::Ne => match interner.get(s) {
                        Some(sym) => make(AttrCmp::Ne(Value::Str(sym))),
                        // Nothing carries this string, so `!=` always holds.
                        None => Lowered::AlwaysTrue,
                    },
                    _ => {
                        return Err(EngineError::Analysis(format!(
                            "ordered comparison `{}` is not defined on string attribute `{name}`",
                            op.symbol()
                        )))
                    }
                }
            }
        }
        Literal::Int(i) => make(numeric_cmp(op, Value::Int(*i))),
        Literal::Float(x) => make(numeric_cmp(op, Value::Float(*x))),
    };
    Ok(lowered)
}

fn numeric_cmp(op: CmpOp, v: Value) -> AttrCmp {
    match op {
        CmpOp::Eq => AttrCmp::Eq(v),
        CmpOp::Ne => AttrCmp::Ne(v),
        CmpOp::Lt => AttrCmp::Lt(v),
        CmpOp::Le => AttrCmp::Le(v),
        CmpOp::Gt => AttrCmp::Gt(v),
        CmpOp::Ge => AttrCmp::Ge(v),
    }
}

fn analyze_globals(
    g: &aiql_lang::Globals,
    interner: &Interner,
) -> Result<AnalyzedGlobals, EngineError> {
    let window = match &g.at {
        Some(at) => {
            let first = TimeWindow::parse_day(&at.start).map_err(EngineError::Model)?;
            match &at.end {
                Some(end) => {
                    let last = TimeWindow::parse_day(end).map_err(EngineError::Model)?;
                    if last.end < first.start {
                        return Err(EngineError::Analysis(format!(
                            "at-range end {end:?} precedes start {:?}",
                            at.start
                        )));
                    }
                    TimeWindow::new(first.start, last.end)
                }
                None => first,
            }
        }
        None => TimeWindow::ALL,
    };
    let mut agents: Option<Vec<AgentId>> = None;
    let mut residual = Vec::new();
    for c in &g.constraints {
        if c.attr == "agentid" && c.op == CmpOp::Eq {
            let id = match &c.value {
                Literal::Int(i) if *i >= 0 => AgentId(*i as u32),
                other => {
                    return Err(EngineError::Analysis(format!(
                        "agentid must be a non-negative integer, found {other}"
                    )))
                }
            };
            agents = Some(match agents {
                // Conjunctive semantics: two different exact agents can never
                // both hold.
                Some(prev) if !prev.contains(&id) && !prev.is_empty() => vec![],
                _ => vec![id],
            });
        } else {
            Attr::resolve(None, &c.attr)?;
            let value = match &c.value {
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => match interner.get(s) {
                    Some(sym) => Value::Str(sym),
                    None => Value::Null,
                },
            };
            residual.push((c.attr.clone(), c.op, value));
        }
    }
    Ok(AnalyzedGlobals {
        window,
        agents,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_lang::parse_query;
    use aiql_model::Timestamp;
    use aiql_storage::{EntitySpec, RawEvent};

    fn store() -> EventStore {
        let mut s = EventStore::default();
        s.ingest_all(&[RawEvent::instant(
            AgentId(1),
            Operation::Read,
            EntitySpec::process(1, "C:\\Windows\\cmd.exe", "bob"),
            EntitySpec::file("C:\\data\\backup1.dmp", "bob"),
            Timestamp::from_secs(10),
            100,
        )]);
        s
    }

    fn analyze(src: &str) -> Result<AnalyzedMultievent, EngineError> {
        let q = parse_query(src).unwrap();
        let aiql_lang::Query::Multievent(m) = q else {
            panic!("expected multievent");
        };
        analyze_multievent(&m, &store())
    }

    #[test]
    fn merges_constraints_across_declaration_sites() {
        let a = analyze(
            r#"proc p1 write file f1["%backup1.dmp"] as e1
               proc p2 read file f1[owner = "bob"] as e2
               return f1"#,
        )
        .unwrap();
        let f1 = a.vars.iter().find(|v| v.name == "f1").unwrap();
        assert_eq!(f1.constraints.len(), 2);
    }

    #[test]
    fn wildcards_lower_to_like() {
        let a = analyze(r#"proc p["%cmd.exe"] read file f as e return p"#).unwrap();
        let p = &a.vars[0];
        assert!(matches!(p.constraints[0].cmp, AttrCmp::Like(_)));
    }

    #[test]
    fn exact_string_absent_from_dictionary_is_unsatisfiable() {
        let a = analyze(r#"proc p["no_such_binary.exe"] read file f as e return p"#).unwrap();
        assert!(a.vars[0].unsatisfiable);
    }

    #[test]
    fn exact_string_present_resolves_to_symbol() {
        let a = analyze(r#"proc p["C:\\Windows\\cmd.exe"] read file f as e return p"#).unwrap();
        assert!(!a.vars[0].unsatisfiable);
        assert!(matches!(
            a.vars[0].constraints[0].cmp,
            AttrCmp::Eq(Value::Str(_))
        ));
    }

    #[test]
    fn ip_literals_parse() {
        let a = analyze(r#"proc p write ip i[dstip = "10.0.4.129"] as e return p"#).unwrap();
        let i = a.vars.iter().find(|v| v.name == "i").unwrap();
        assert!(matches!(i.constraints[0].cmp, AttrCmp::Eq(Value::Ip(_))));
    }

    #[test]
    fn bad_ip_rejected() {
        let err = analyze(r#"proc p write ip i[dstip = "10.0.4"] as e return p"#).unwrap_err();
        assert!(err.to_string().contains("IPv4"), "{err}");
    }

    #[test]
    fn agentid_global_becomes_spatial_filter() {
        let a = analyze("agentid = 1 proc p read file f as e return p").unwrap();
        assert_eq!(a.globals.agents, Some(vec![AgentId(1)]));
    }

    #[test]
    fn at_range_widens_the_window() {
        let a = analyze(r#"(at "03/19/2018" to "03/21/2018") proc p read file f as e return p"#)
            .unwrap();
        assert_eq!(
            a.globals.window.start,
            aiql_model::Timestamp::from_date(2018, 3, 19)
        );
        assert_eq!(
            a.globals.window.end,
            aiql_model::Timestamp::from_date(2018, 3, 22) // end day inclusive
        );
    }

    #[test]
    fn at_range_backwards_rejected() {
        let err = analyze(r#"(at "03/21/2018" to "03/19/2018") proc p read file f as e return p"#)
            .unwrap_err();
        assert!(err.to_string().contains("precedes"), "{err}");
    }

    #[test]
    fn contradictory_agentids_unsatisfiable() {
        let a = analyze("agentid = 1 agentid = 2 proc p read file f as e return p").unwrap();
        assert_eq!(a.globals.agents, Some(vec![]));
    }

    #[test]
    fn kind_conflict_rejected() {
        let err =
            analyze("proc p read file x as e1 proc x read file f as e2 return p").unwrap_err();
        assert!(err.to_string().contains("declared as both"), "{err}");
    }

    #[test]
    fn op_object_kind_mismatch_rejected() {
        // `read`/`write` legally target files and connections, but
        // `execute` only files and `start` only processes.
        let err = analyze("proc p execute ip i as e return p").unwrap_err();
        assert!(err.to_string().contains("cannot target"), "{err}");
        let err = analyze("proc p start file f as e return p").unwrap_err();
        assert!(err.to_string().contains("cannot target"), "{err}");
        assert!(analyze("proc p read ip i as e return p").is_ok());
    }

    #[test]
    fn connect_to_process_allowed() {
        // Cross-host tracking edge.
        assert!(analyze("proc p connect proc q as e return p").is_ok());
    }

    #[test]
    fn unknown_temporal_event_rejected() {
        let err = analyze("proc p read file f as e1 with e1 before e9 return p").unwrap_err();
        assert!(err.to_string().contains("e9"), "{err}");
    }

    #[test]
    fn unknown_return_variable_rejected() {
        let err = analyze("proc p read file f as e return q").unwrap_err();
        assert!(err.to_string().contains("unknown variable"), "{err}");
    }

    /// `order by` resolves to returned columns at analysis, before any
    /// scan runs.
    #[test]
    fn order_by_must_name_a_returned_column() {
        let err = analyze("proc p read file f as e return p order by f").unwrap_err();
        assert!(err.to_string().contains("order by"), "{err}");
        let a = analyze("proc p read file f as e return p, f as g order by g desc, p").unwrap();
        assert_eq!(a.order_by, vec![(1, SortDir::Desc), (0, SortDir::Asc)]);
    }

    /// Constraint attribute names resolve through the model's table: on an
    /// entity per its kind, and on the event for a global constraint.
    #[test]
    fn unknown_constraint_attributes_rejected() {
        for src in [
            "proc p[bogus = 1] read file f as e return p",
            r#"proc p read file f[bogus = "x"] as e return p"#,
            r#"proc p read file f[dstip = "10.0.0.1"] as e return p"#,
            "bogus = 3 proc p read file f as e return p",
        ] {
            assert!(matches!(analyze(src), Err(EngineError::Model(_))), "{src}");
        }
        let known = "amount > 3 agentid != 2 proc p[agentid = 1, pid = 4] read ip i[dstport = 80] as e return p";
        assert!(analyze(known).is_ok());
    }

    #[test]
    fn history_rejected_outside_anomaly() {
        let err = analyze(
            "proc p read file f as e return p, avg(e.amount) as amt group by p having amt[1] > 0",
        )
        .unwrap_err();
        assert!(err.to_string().contains("anomaly"), "{err}");
    }

    #[test]
    fn anomaly_analysis_accepts_history() {
        let q = parse_query(
            r#"window = 1 min, step = 10 sec
               proc p write ip i as evt
               return p, avg(evt.amount) as amt
               group by p
               having amt > 2 * amt[1]"#,
        )
        .unwrap();
        let aiql_lang::Query::Anomaly(anom) = q else {
            panic!()
        };
        let a = analyze_anomaly(&anom, &store()).unwrap();
        assert!(a.base.having.is_some());
        assert_eq!(a.window_spec.step, aiql_model::Duration::from_secs(10));
    }

    #[test]
    fn anomaly_requires_single_pattern() {
        let q = parse_query(
            r#"window = 1 min, step = 10 sec
               proc p write ip i as e1
               proc p read file f as e2
               return p"#,
        )
        .unwrap();
        let aiql_lang::Query::Anomaly(anom) = q else {
            panic!()
        };
        assert!(analyze_anomaly(&anom, &store()).is_err());
    }
}
