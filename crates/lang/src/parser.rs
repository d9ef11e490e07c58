//! Recursive-descent parser for AIQL.
//!
//! The grammar is deliberately line-oriented in spirit but whitespace
//! insensitive in implementation; clause keywords (`with`, `return`,
//! `group`, `having`, `order`, `limit`) delimit sections. Queries are
//! classified by structure: a `forward:`/`backward:` prefix makes a
//! dependency query; a `window = …` global makes an anomaly query;
//! everything else is a multievent query.

use aiql_model::Duration;

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Span, Tok, Token};

/// Parses a complete AIQL query.
pub fn parse_query(source: &str) -> Result<Query, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let globals = p.parse_globals()?;
    let query = match p.peek_ident() {
        Some("forward") | Some("backward") => Query::Dependency(p.parse_dependency_body(globals)?),
        _ => p.parse_event_body(globals)?,
    };
    p.expect_eof()?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.peek_ident() == Some(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_ident(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self
                .err_here(format!("expected {tok}, found {}", self.peek()))
                .with_expected(vec![tok.to_string()]))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err_here(format!("unexpected {} after end of query", self.peek())))
        }
    }

    fn err_here(&self, message: String) -> ParseError {
        ParseError::new(self.peek_span(), message)
    }

    fn any_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err_here(format!("expected {what}, found {other}"))),
        }
    }

    // ---- globals ---------------------------------------------------------

    fn parse_globals(&mut self) -> Result<Globals, ParseError> {
        let mut globals = Globals::default();
        loop {
            match self.peek() {
                Tok::LParen => {
                    // `(at "mm/dd/yyyy")`
                    self.bump();
                    self.expect_ident("at")?;
                    let date = match self.bump() {
                        Tok::Str(s) => s,
                        other => {
                            return Err(self.err_here(format!(
                                "expected date string after `at`, found {other}"
                            )))
                        }
                    };
                    let end = if self.eat_ident("to") {
                        match self.bump() {
                            Tok::Str(s) => Some(s),
                            other => {
                                return Err(self.err_here(format!(
                                    "expected end date string after `to`, found {other}"
                                )))
                            }
                        }
                    } else {
                        None
                    };
                    self.expect(Tok::RParen)?;
                    if globals.at.is_some() {
                        return Err(self.err_here("duplicate `(at …)` clause".to_string()));
                    }
                    globals.at = Some(AtClause { start: date, end });
                }
                Tok::Ident(id) if id == "window" => {
                    self.bump();
                    self.expect(Tok::Eq)?;
                    let length = self.parse_duration()?;
                    self.expect(Tok::Comma)?;
                    self.expect_ident("step")?;
                    self.expect(Tok::Eq)?;
                    let step = self.parse_duration()?;
                    globals.window = Some(WindowSpec { length, step });
                }
                Tok::Ident(id)
                    if !matches!(id.as_str(), "proc" | "file" | "ip" | "forward" | "backward")
                        && self.peek2_is_cmp() =>
                {
                    let attr = self.any_ident("attribute name")?;
                    let op = self.parse_cmp_op()?;
                    let value = self.parse_literal()?;
                    globals.constraints.push(AttrConstraint { attr, op, value });
                }
                _ => return Ok(globals),
            }
        }
    }

    fn peek2_is_cmp(&self) -> bool {
        matches!(
            self.tokens.get(self.pos + 1).map(|t| &t.tok),
            Some(Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge)
        )
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => {
                return Err(self.err_here(format!("expected comparison operator, found {other}")))
            }
        };
        self.bump();
        Ok(op)
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        match self.peek().clone() {
            Tok::Str(s) => {
                self.bump();
                Ok(Literal::Str(s))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Literal::Int(i))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Literal::Float(x))
            }
            Tok::Minus => {
                self.bump();
                match self.bump() {
                    Tok::Int(i) => Ok(Literal::Int(-i)),
                    Tok::Float(x) => Ok(Literal::Float(-x)),
                    other => {
                        Err(self.err_here(format!("expected number after `-`, found {other}")))
                    }
                }
            }
            other => Err(self.err_here(format!("expected literal, found {other}"))),
        }
    }

    fn parse_duration(&mut self) -> Result<Duration, ParseError> {
        let n = match self.bump() {
            Tok::Int(i) => i,
            other => return Err(self.err_here(format!("expected duration count, found {other}"))),
        };
        let unit = self.any_ident("duration unit (us/ms/sec/min/hour/day)")?;
        let one = match unit.as_str() {
            "us" => Duration::from_micros(1),
            "ms" => Duration::from_millis(1),
            "s" | "sec" | "secs" | "second" | "seconds" => Duration::from_secs(1),
            "min" | "mins" | "minute" | "minutes" => Duration::from_mins(1),
            "h" | "hour" | "hours" => Duration::from_hours(1),
            "d" | "day" | "days" => Duration::from_days(1),
            other => return Err(self.err_here(format!("unknown duration unit `{other}`"))),
        };
        match n.checked_mul(one.micros()) {
            Some(micros) => Ok(Duration::from_micros(micros)),
            None => Err(self.err_here(format!(
                "duration `{n} {unit}` exceeds the representable range"
            ))),
        }
    }

    // ---- entity declarations and event patterns --------------------------

    fn parse_kind_kw(&mut self) -> Result<EntityKindKw, ParseError> {
        let kw = match self.peek_ident() {
            Some("proc") => EntityKindKw::Proc,
            Some("file") => EntityKindKw::File,
            Some("ip") => EntityKindKw::Ip,
            _ => {
                return Err(self
                    .err_here(format!("expected entity kind, found {}", self.peek()))
                    .with_expected(vec!["proc".into(), "file".into(), "ip".into()]))
            }
        };
        self.bump();
        Ok(kw)
    }

    fn parse_entity_decl(&mut self) -> Result<EntityDecl, ParseError> {
        let kind = self.parse_kind_kw()?;
        let var = self.any_ident("entity variable")?;
        let mut constraints = Vec::new();
        if self.eat(&Tok::LBracket) && !self.eat(&Tok::RBracket) {
            loop {
                constraints.push(self.parse_decl_constraint()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RBracket)?;
        }
        Ok(EntityDecl {
            kind,
            var,
            constraints,
        })
    }

    fn parse_decl_constraint(&mut self) -> Result<DeclConstraint, ParseError> {
        match self.peek() {
            Tok::Str(_) | Tok::Int(_) | Tok::Float(_) | Tok::Minus => {
                Ok(DeclConstraint::Default(self.parse_literal()?))
            }
            Tok::Ident(_) => {
                let attr = self.any_ident("attribute name")?;
                let op = self.parse_cmp_op()?;
                let value = self.parse_literal()?;
                Ok(DeclConstraint::Attr(AttrConstraint { attr, op, value }))
            }
            other => Err(self.err_here(format!(
                "expected entity constraint (literal or attr = value), found {other}"
            ))),
        }
    }

    fn parse_op_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut ops = vec![self.any_ident("operation")?];
        while self.eat(&Tok::OrOr) {
            ops.push(self.any_ident("operation")?);
        }
        Ok(ops)
    }

    fn parse_event_pattern(&mut self) -> Result<EventPattern, ParseError> {
        let subject = self.parse_entity_decl()?;
        let ops = self.parse_op_list()?;
        let object = self.parse_entity_decl()?;
        let name = if self.eat_ident("as") {
            Some(self.any_ident("event variable")?)
        } else {
            None
        };
        Ok(EventPattern {
            subject,
            ops,
            object,
            name,
        })
    }

    // ---- multievent / anomaly body ---------------------------------------

    fn parse_event_body(&mut self, globals: Globals) -> Result<Query, ParseError> {
        let mut patterns = Vec::new();
        while matches!(self.peek_ident(), Some("proc" | "file" | "ip")) {
            if self.peek_ident() != Some("proc") {
                return Err(
                    self.err_here("event pattern subject must be a process (`proc …`)".to_string())
                );
            }
            patterns.push(self.parse_event_pattern()?);
        }
        if patterns.is_empty() {
            return Err(self.err_here(format!(
                "expected at least one event pattern, found {}",
                self.peek()
            )));
        }
        let mut temporal = Vec::new();
        if self.eat_ident("with") {
            loop {
                temporal.push(self.parse_temporal_relation()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let ret = self.parse_return_clause()?;
        let mut group_by = Vec::new();
        if self.eat_ident("group") {
            self.expect_ident("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_ident("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_ident("order") {
            self.expect_ident("by")?;
            loop {
                let expr = self.parse_expr()?;
                let dir = if self.eat_ident("desc") {
                    SortDir::Desc
                } else {
                    self.eat_ident("asc");
                    SortDir::Asc
                };
                order_by.push(OrderItem { expr, dir });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_ident("limit") {
            match self.bump() {
                Tok::Int(i) if i >= 0 => Some(i as u64),
                other => return Err(self.err_here(format!("expected limit count, found {other}"))),
            }
        } else {
            None
        };

        if globals.window.is_some() {
            if !temporal.is_empty() {
                return Err(self.err_here(
                    "anomaly queries (with a window spec) do not support `with` temporal clauses"
                        .to_string(),
                ));
            }
            if !order_by.is_empty() || limit.is_some() {
                return Err(self
                    .err_here("anomaly queries do not support `order by` / `limit`".to_string()));
            }
            Ok(Query::Anomaly(AnomalyQuery {
                globals,
                patterns,
                ret,
                group_by,
                having,
            }))
        } else {
            Ok(Query::Multievent(MultieventQuery {
                globals,
                patterns,
                temporal,
                ret,
                group_by,
                having,
                order_by,
                limit,
            }))
        }
    }

    fn parse_temporal_relation(&mut self) -> Result<TemporalRelation, ParseError> {
        let left = self.any_ident("event variable")?;
        let op = match self.peek_ident() {
            Some("before") => {
                self.bump();
                TemporalOp::Before(self.parse_optional_bound()?)
            }
            Some("after") => {
                self.bump();
                TemporalOp::After(self.parse_optional_bound()?)
            }
            _ => {
                return Err(self
                    .err_here(format!("expected temporal operator, found {}", self.peek()))
                    .with_expected(vec!["before".into(), "after".into()]))
            }
        };
        let right = self.any_ident("event variable")?;
        Ok(TemporalRelation { left, op, right })
    }

    fn parse_optional_bound(&mut self) -> Result<Option<Duration>, ParseError> {
        if self.eat(&Tok::LBracket) {
            let d = self.parse_duration()?;
            self.expect(Tok::RBracket)?;
            Ok(Some(d))
        } else {
            Ok(None)
        }
    }

    fn parse_return_clause(&mut self) -> Result<ReturnClause, ParseError> {
        self.expect_ident("return")?;
        let distinct = self.eat_ident("distinct");
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat_ident("as") {
                Some(self.any_ident("alias")?)
            } else {
                None
            };
            items.push(ReturnItem { expr, alias });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(ReturnClause { distinct, items })
    }

    // ---- dependency body ---------------------------------------------------

    fn parse_dependency_body(&mut self, globals: Globals) -> Result<DependencyQuery, ParseError> {
        let direction = match self.any_ident("direction")?.as_str() {
            "forward" => Direction::Forward,
            "backward" => Direction::Backward,
            other => {
                return Err(
                    self.err_here(format!("expected `forward` or `backward`, found `{other}`"))
                )
            }
        };
        self.expect(Tok::Colon)?;
        let start = self.parse_entity_decl()?;
        let mut edges = Vec::new();
        loop {
            let arrow = match self.peek() {
                Tok::ArrowRight => ArrowDir::Right,
                Tok::ArrowLeft => ArrowDir::Left,
                _ => break,
            };
            self.bump();
            self.expect(Tok::LBracket)?;
            let ops = self.parse_op_list()?;
            self.expect(Tok::RBracket)?;
            let node = self.parse_entity_decl()?;
            edges.push(DepEdge { arrow, ops, node });
        }
        if edges.is_empty() {
            return Err(
                self.err_here("dependency query needs at least one edge (`->[op] …`)".to_string())
            );
        }
        let ret = self.parse_return_clause()?;
        Ok(DependencyQuery {
            globals,
            direction,
            start,
            edges,
            ret,
        })
    }

    // ---- expressions -------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat_ident("or") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_ident("and") {
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            // Fold negation of a numeric literal into the literal itself so
            // `-0.5` roundtrips as one node.
            match self.peek().clone() {
                Tok::Int(i) => {
                    self.bump();
                    Ok(Expr::Literal(Literal::Int(-i)))
                }
                Tok::Float(x) => {
                    self.bump();
                    Ok(Expr::Literal(Literal::Float(-x)))
                }
                _ => Ok(Expr::Neg(Box::new(self.parse_unary()?))),
            }
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Str(_) | Tok::Int(_) | Tok::Float(_) => Ok(Expr::Literal(self.parse_literal()?)),
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                // Aggregate call?
                if let Some(func) = AggFunc::parse(&name) {
                    if self.eat(&Tok::LParen) {
                        let arg = if func == AggFunc::Count && self.eat(&Tok::Star) {
                            Expr::Literal(Literal::Int(1))
                        } else {
                            self.parse_expr()?
                        };
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Box::new(arg),
                        });
                    }
                }
                // Attribute reference?
                if self.eat(&Tok::Dot) {
                    let attr = self.any_ident("attribute name")?;
                    return Ok(Expr::Ref {
                        var: name,
                        attr: Some(attr),
                    });
                }
                // Historical aggregate access?
                if self.eat(&Tok::LBracket) {
                    let lag = match self.bump() {
                        Tok::Int(i) if i >= 0 => i as u32,
                        other => {
                            return Err(self.err_here(format!(
                                "expected window lag (non-negative integer), found {other}"
                            )))
                        }
                    };
                    self.expect(Tok::RBracket)?;
                    return Ok(Expr::History { name, lag });
                }
                Ok(Expr::Ref {
                    var: name,
                    attr: None,
                })
            }
            other => Err(self.err_here(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query 1 from the paper: data exfiltration from database server.
    const QUERY1: &str = r#"
(at "03/19/2018") // time window
agentid = 5 // SQL database server
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip = "10.0.4.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1
"#;

    /// Query 2: forward tracking for malware ramification.
    const QUERY2: &str = r#"
(at "03/19/2018")
forward: proc p1["%/bin/cp%", agentid = 1] ->[write] file f1["/var/www/%info_stealer%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid = 2] // tracking across hosts
->[write] file f2["%info_stealer%"]
return f1, p1, p2, p3, f2
"#;

    /// Query 3: large data transfer from database server.
    const QUERY3: &str = r#"
(at "03/19/2018")
agentid = 5
window = 1 min, step = 10 sec
proc p write ip i[dstip = "10.0.4.129"] as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)
"#;

    #[test]
    fn parses_paper_query_1() {
        let q = parse_query(QUERY1).unwrap();
        let Query::Multievent(m) = q else {
            panic!("expected multievent");
        };
        assert_eq!(m.globals.at, Some(AtClause::day("03/19/2018")));
        assert_eq!(m.globals.constraints.len(), 1);
        assert_eq!(m.patterns.len(), 4);
        assert_eq!(m.patterns[0].name.as_deref(), Some("evt1"));
        assert_eq!(m.patterns[3].ops, vec!["read", "write"]);
        assert_eq!(m.temporal.len(), 3);
        assert!(m.ret.distinct);
        assert_eq!(m.ret.items.len(), 6);
        // f1 redeclared without constraints in evt3 (implicit join).
        assert_eq!(m.patterns[2].object.var, "f1");
        assert!(m.patterns[2].object.constraints.is_empty());
    }

    #[test]
    fn parses_paper_query_2() {
        let q = parse_query(QUERY2).unwrap();
        let Query::Dependency(d) = q else {
            panic!("expected dependency");
        };
        assert_eq!(d.direction, Direction::Forward);
        assert_eq!(d.start.var, "p1");
        assert_eq!(d.edges.len(), 4);
        assert_eq!(d.edges[0].arrow, ArrowDir::Right);
        assert_eq!(d.edges[0].ops, vec!["write"]);
        assert_eq!(d.edges[1].arrow, ArrowDir::Left);
        assert_eq!(d.edges[1].node.var, "p2");
        assert_eq!(d.ret.items.len(), 5);
    }

    #[test]
    fn parses_paper_query_3() {
        let q = parse_query(QUERY3).unwrap();
        let Query::Anomaly(a) = q else {
            panic!("expected anomaly");
        };
        let w = a.globals.window.unwrap();
        assert_eq!(w.length, Duration::from_mins(1));
        assert_eq!(w.step, Duration::from_secs(10));
        assert_eq!(a.patterns.len(), 1);
        assert_eq!(a.group_by.len(), 1);
        let having = a.having.unwrap();
        // Explicit history accesses carry lags 1 and 2; bare `amt` parses as
        // a plain reference (the analyzer later resolves it to lag 0).
        let mut lags = Vec::new();
        let mut bare_refs = 0;
        having.visit(&mut |e| match e {
            Expr::History { lag, .. } => lags.push(*lag),
            Expr::Ref { var, attr: None } if var == "amt" => bare_refs += 1,
            _ => {}
        });
        lags.sort_unstable();
        assert_eq!(lags, vec![1, 2]);
        assert_eq!(bare_refs, 2);
    }

    #[test]
    fn return_aliases_and_aggregates() {
        let q = parse_query(
            "proc p read file f as e return p, count(e.amount) as n, sum(e.amount) as total group by p",
        )
        .unwrap();
        let Query::Multievent(m) = q else { panic!() };
        assert_eq!(m.ret.items[1].alias.as_deref(), Some("n"));
        assert!(matches!(
            m.ret.items[1].expr,
            Expr::Agg {
                func: AggFunc::Count,
                ..
            }
        ));
        assert_eq!(m.group_by.len(), 1);
    }

    #[test]
    fn order_by_and_limit() {
        let q = parse_query(
            "proc p read file f as e return p, f order by e.amount desc, p asc limit 10",
        )
        .unwrap();
        let Query::Multievent(m) = q else { panic!() };
        assert_eq!(m.order_by.len(), 2);
        assert_eq!(m.order_by[0].dir, SortDir::Desc);
        assert_eq!(m.order_by[1].dir, SortDir::Asc);
        assert_eq!(m.limit, Some(10));
    }

    #[test]
    fn temporal_bound() {
        let q = parse_query(
            "proc p read file f as e1 proc p write ip i as e2 with e1 before[5 min] e2 return p",
        )
        .unwrap();
        let Query::Multievent(m) = q else { panic!() };
        assert_eq!(
            m.temporal[0].op,
            TemporalOp::Before(Some(Duration::from_mins(5)))
        );
    }

    #[test]
    fn duration_past_the_microsecond_range_is_an_error() {
        let max = parse_query(
            "window = 9223372036854775807 us, step = 106751991 day proc p read file f as e return p",
        )
        .unwrap();
        let Query::Anomaly(a) = max else { panic!() };
        assert_eq!(a.globals.window.unwrap().length, Duration(i64::MAX));
        for src in [
            "window = 106751992 day, step = 1 min proc p read file f as e return p",
            "proc p read file f as e1 proc p write ip i as e2 with e1 before[300000000000 day] e2 return p",
        ] {
            let err = parse_query(src).unwrap_err();
            assert!(err.message.contains("representable range"), "{err}");
        }
    }

    #[test]
    fn count_star() {
        let q = parse_query("proc p read file f as e return p, count(*) as n group by p").unwrap();
        let Query::Multievent(m) = q else { panic!() };
        assert!(matches!(
            m.ret.items[1].expr,
            Expr::Agg {
                func: AggFunc::Count,
                ..
            }
        ));
    }

    #[test]
    fn error_missing_return() {
        let err = parse_query("proc p read file f as e").unwrap_err();
        assert!(err.message.contains("return"), "{err}");
    }

    #[test]
    fn error_subject_not_process() {
        let err = parse_query("file f read file g as e return f").unwrap_err();
        assert!(err.message.contains("process"), "{err}");
    }

    #[test]
    fn error_dependency_without_edges() {
        let err = parse_query("forward: proc p1 return p1").unwrap_err();
        assert!(err.message.contains("edge"), "{err}");
    }

    #[test]
    fn error_anomaly_with_temporal() {
        let err = parse_query(
            "window = 1 min, step = 10 sec proc p read file f as e1 proc p read file g as e2 with e1 before e2 return p",
        )
        .unwrap_err();
        assert!(err.message.contains("anomaly"), "{err}");
    }

    #[test]
    fn error_trailing_garbage() {
        let err = parse_query("proc p read file f as e return p p p").unwrap_err();
        assert!(err.message.contains("unexpected"), "{err}");
    }

    #[test]
    fn error_reports_position() {
        let err = parse_query("proc p read file f as e\nreturn p,").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn global_constraints_multiple() {
        let q = parse_query("agentid = 3 agentid != 4 proc p read file f as e return p").unwrap();
        assert_eq!(q.globals().constraints.len(), 2);
        assert_eq!(q.globals().constraints[1].op, CmpOp::Ne);
    }

    #[test]
    fn empty_bracket_list_allowed() {
        let q = parse_query("proc p[] read file f[] as e return p").unwrap();
        let Query::Multievent(m) = q else { panic!() };
        assert!(m.patterns[0].subject.constraints.is_empty());
    }

    #[test]
    fn at_range_parses() {
        let q =
            parse_query(r#"(at "03/19/2018" to "03/21/2018") proc p read file f as e return p"#)
                .unwrap();
        assert_eq!(
            q.globals().at,
            Some(AtClause {
                start: "03/19/2018".into(),
                end: Some("03/21/2018".into()),
            })
        );
    }

    #[test]
    fn at_range_requires_string_end() {
        let err =
            parse_query(r#"(at "03/19/2018" to 42) proc p read file f as e return p"#).unwrap_err();
        assert!(err.message.contains("end date"), "{err}");
    }

    #[test]
    fn at_range_roundtrips_through_pretty() {
        let src = r#"(at "03/19/2018" to "03/21/2018") proc p read file f as e return p"#;
        let q1 = parse_query(src).unwrap();
        let printed = crate::pretty::print_query(&q1);
        assert_eq!(parse_query(&printed).unwrap(), q1);
    }
}
