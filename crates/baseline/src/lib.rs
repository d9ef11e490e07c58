//! # aiql-baseline
//!
//! The comparison systems of the paper's evaluation, re-implemented over
//! the same data model so that the benchmarks compare *query processing
//! strategies* rather than storage formats:
//!
//! * [`RelationalEngine`] — a PostgreSQL-style executor. It receives the
//!   same analyzed query but behaves like a general-purpose engine handed
//!   the big hand-written SQL join: patterns are scanned in **textual
//!   order** with no pruning-power reordering, no binding propagation
//!   between scans, no temporal narrowing, and no partition parallelism.
//!   The `optimized_storage` flag selects between the paper's two
//!   configurations: Figure 4 runs it *with* the optimized storage (indexes
//!   and partitions available to each scan), Figure 5 *without* (every scan
//!   is a full heap scan with per-row predicate evaluation).
//! * [`GraphEngine`] — a Neo4j-style executor: entities are nodes, events
//!   are relationships, and patterns match by backtracking graph traversal.
//!   It expands adjacency lists for bound variables but, lacking hash joins
//!   and posting lists, falls back to full relationship scans whenever a
//!   pattern shares no bound variable, and evaluates every property
//!   predicate per visited edge.
//!
//! Both engines return exactly the same rows as `aiql-engine` (verified by
//! the equivalence test-suite); only their execution strategies differ.
//! Both project their matches on the dynamic evaluator of [`naive`], which
//! also holds the brute-force oracle ([`naive::run_reference`]) the
//! engine's property tests compare against.

#![forbid(unsafe_code)]

pub mod graph;
pub mod naive;
pub mod relational;

pub use graph::GraphEngine;
pub use relational::RelationalEngine;
