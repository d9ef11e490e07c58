//! # aiql-sim
//!
//! Deterministic enterprise workload generation and scripted APT attacks.
//!
//! The paper evaluates AIQL on NEC Labs' 150-host deployment by performing
//! a live APT attack and investigating it over the collected audit data. We
//! cannot replay those logs, so this crate synthesizes the closest
//! equivalent (see DESIGN.md):
//!
//! * [`enterprise`] — role-aware background system activity for N hosts
//!   (workstations, a web server, a database server, a domain controller):
//!   Zipf-distributed process/file popularity, process trees, file I/O, and
//!   network transfers, all from a seeded RNG so every run is reproducible;
//! * [`attack`] — the two scripted APT campaigns: the five-step demo attack
//!   of the paper (§3: initial compromise → malware infection → privilege
//!   escalation → credential dumping → data exfiltration) and the second
//!   case-study attack evaluated in Figure 5;
//! * [`queries`] — the investigation query catalogs: the 19 Figure-4
//!   queries (`a1-1 … a5-5`, including the anomaly query that kicks off the
//!   investigation) and the 26 Figure-5 queries (`c1-1 … c5-7`);
//! * [`scenario`] — glue that assembles background + attack into a loaded
//!   [`aiql_storage::EventStore`] at a configurable scale.

#![forbid(unsafe_code)]

pub mod attack;
pub mod enterprise;
pub mod queries;
pub mod scenario;
pub mod zipf;

pub use queries::{case_study_queries, demo_queries, CatalogQuery};
pub use scenario::{build_store, scenario_case_study, scenario_demo, Scale, Scenario};
