//! Engine error types.
//!
//! # Error taxonomy
//!
//! Every failure a query can surface is a structured [`EngineError`]
//! variant; nothing on the execution path panics past the pool boundary.
//! The variants split into three families:
//!
//! | Variant | Family | Raised by | Retryable? |
//! |---------|--------|-----------|------------|
//! | [`Parse`](EngineError::Parse) | query rejection | the AIQL parser | no — fix the query text |
//! | [`Analysis`](EngineError::Analysis) | query rejection | semantic analysis | no — fix the query |
//! | [`Model`](EngineError::Model) | query rejection | literal conversion (dates, IPs) | no — fix the query |
//! | [`TooManyMatches`](EngineError::TooManyMatches) | resource governance | the join budget (`max_intermediate`) | yes — refine predicates or raise the cap |
//! | [`DeadlineExceeded`](EngineError::DeadlineExceeded) | resource governance | the governor's wall-clock deadline | yes — give the query a longer [`ExecBudget`](crate::ExecBudget) deadline or narrow the time window |
//! | [`Cancelled`](EngineError::Cancelled) | resource governance | a caller-held [`CancelToken`](crate::governor::CancelToken) | yes — the query was killed on purpose |
//! | [`MemoryBudget`](EngineError::MemoryBudget) | resource governance | the governor's byte accounting over arena + frontier | yes — give the query a larger budget `memory_bytes` or refine |
//! | [`WorkerPanic`](EngineError::WorkerPanic) | fault containment | a panic caught on a pool worker | maybe — indicates a bug; the pool stays healthy |
//! | [`Internal`](EngineError::Internal) | fault containment | a broken engine invariant caught on a fallible path (missing pool/partition, unstaged scan filter) | no — indicates a bug; the query unwinds cleanly instead of panicking |
//!
//! Resource-governance errors are *clean* stops: they are raised at batch
//! boundaries, the engine unwinds normally, and the shared scan pool and
//! plan cache remain fully usable. Under
//! [`partial_results`](crate::ExecBudget::partial_results) the governance
//! family (except `Cancelled`-free paths that never started) is downgraded
//! to a truncated [`ResultTable`](crate::ResultTable) carrying
//! [`Warning`](crate::governor::Warning)s instead of an `Err`.

use std::fmt;

use aiql_lang::ParseError;
use aiql_model::ModelError;

/// Errors raised while analyzing or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// Semantic analysis rejected the query (message explains why).
    Analysis(String),
    /// A model-level conversion failed (bad date, bad IP, …).
    Model(ModelError),
    /// The intermediate result exceeded the configured bound.
    TooManyMatches {
        /// The configured cap that was exceeded.
        cap: usize,
    },
    /// The query ran past its wall-clock deadline.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The caller cancelled the query through its
    /// [`CancelToken`](crate::governor::CancelToken).
    Cancelled,
    /// The query's intermediate state exceeded its memory budget.
    MemoryBudget {
        /// The configured budget, in bytes.
        budget_bytes: u64,
    },
    /// A worker panicked while executing part of this query. The panic was
    /// contained: the message is captured here and the shared pool keeps
    /// serving other queries.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An engine invariant broke mid-query (a bug, not a user error). The
    /// query unwinds cleanly with this instead of panicking, so one broken
    /// plan cannot take down the sessions sharing the process.
    Internal {
        /// Which invariant broke.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Analysis(m) => write!(f, "semantic error: {m}"),
            EngineError::Model(e) => write!(f, "semantic error: {e}"),
            EngineError::TooManyMatches { cap } => {
                write!(
                    f,
                    "intermediate result exceeded {cap} tuples; refine the query"
                )
            }
            EngineError::DeadlineExceeded { deadline_ms } => {
                write!(f, "query exceeded its {deadline_ms} ms deadline")
            }
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::MemoryBudget { budget_bytes } => {
                write!(
                    f,
                    "query exceeded its {budget_bytes}-byte memory budget; refine the query"
                )
            }
            EngineError::WorkerPanic { message } => {
                write!(f, "worker panicked during query execution: {message}")
            }
            EngineError::Internal { message } => {
                write!(f, "internal engine error: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        assert!(EngineError::Analysis("unknown variable `p9`".into())
            .to_string()
            .contains("p9"));
        assert!(EngineError::TooManyMatches { cap: 10 }
            .to_string()
            .contains("10"));
        assert!(EngineError::DeadlineExceeded { deadline_ms: 250 }
            .to_string()
            .contains("250"));
        assert!(EngineError::MemoryBudget {
            budget_bytes: 1 << 20
        }
        .to_string()
        .contains("1048576"));
        assert!(EngineError::WorkerPanic {
            message: "index out of bounds".into()
        }
        .to_string()
        .contains("index out of bounds"));
        assert!(EngineError::Internal {
            message: "scan executor missing".into()
        }
        .to_string()
        .contains("scan executor missing"));
    }
}
