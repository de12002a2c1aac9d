//! # cumulon-check
//!
//! Cross-layer invariant checker for the Cumulon-RS workspace — the
//! engine behind `cumulon check`.
//!
//! The other crates each test themselves; this one tests the *contracts
//! between them*. It drives a small workload suite (a multiply chain, a
//! Gram matrix, an iterative power method) through the full observational
//! configuration lattice — worker threads 1 vs. N, unbounded vs.
//! spill-forcing memory budgets, tracing on/off, billing policies, injected
//! faults with lineage recovery, and solo vs. multi-tenant service
//! concurrency — and machine-checks the global identities that hold the
//! system together:
//!
//! | invariant | contract |
//! |---|---|
//! | `result-identity` | observational config never changes result bits |
//! | `reference-conformance` | cluster results match naive local math |
//! | `byte-conservation` | namenode metadata == datanode byte counters |
//! | `billing-identity` | `cost == nodes × price × billed_hours`, bitwise |
//! | `trace-accounting` | phases + idle == makespan |
//! | `recovery-idempotence` | faults + recovery reproduce fault-free bits |
//! | `estimate-envelope` | wave model within a sigma envelope of MC |
//! | `search-grid-coverage` | deployment sweep covers the exact grid; `optimize` returns its first-ranked row |
//! | `serve-isolation` | concurrent service tenants reproduce the serial direct pipeline bitwise |
//!
//! Violations come back as a structured [`CheckReport`] — renderable for
//! humans, serializable as JSON (schema `cumulon-check-v1`) for CI — and
//! the whole sweep is deterministic, so a reported violation reproduces
//! on any host. See `DESIGN.md` § Validation for how to add an invariant.

#![warn(unreachable_pub)]

pub mod report;
pub mod suite;

pub use report::{CheckOutcome, CheckReport};
pub use suite::{run_checks, CheckOptions};
