//! # aiql-lang
//!
//! The **Attack Investigation Query Language** (§2.2 of the paper): a
//! domain-specific language with explicit constructs for the three major
//! types of attack behaviors —
//!
//! 1. **Multievent queries** — event patterns
//!    (`proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1`), global
//!    spatial/temporal constraints, attribute relationships (implicit via
//!    shared variables), and temporal relationships (`with evt1 before evt2`);
//! 2. **Dependency queries** — event paths for causality tracking
//!    (`forward: proc p1 ->[write] file f1 <-[read] proc p2 …`);
//! 3. **Anomaly queries** — sliding windows (`window = 1 min, step = 10
//!    sec`), aggregations (`avg(evt.amount) as amt`), and accesses to
//!    historical aggregate results (`amt[1]`, the value one window back).
//!
//! The paper builds the grammar with ANTLR 4; here it is a hand-written
//! lexer ([`lexer`]) and recursive-descent parser ([`parser`]) with precise
//! error reporting ([`error`]), plus a canonical pretty-printer ([`pretty`])
//! and translators to semantically equivalent SQL ([`sql`]) and Cypher
//! ([`cypher`]) used for the paper's conciseness comparison ([`metrics`]).

#![forbid(unsafe_code)]

pub mod ast;
pub mod cypher;
pub mod error;
pub mod lexer;
pub mod metrics;
pub mod parser;
pub mod pretty;
pub mod rewrite;
pub mod sql;
pub mod token;

pub use ast::*;
pub use error::ParseError;
pub use parser::parse_query;
pub use rewrite::dependency_to_multievent;
