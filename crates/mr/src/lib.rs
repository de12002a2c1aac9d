//! # cumulon-mr
//!
//! The baseline substrate: a MapReduce engine simulation and SystemML-style
//! matrix operators on top of it.
//!
//! Cumulon's headline performance claim is architectural: matrix workloads
//! pay real structural costs on classic MapReduce — key-value blocking, a
//! sort/spill/shuffle/merge pipeline between map and reduce, one (or two)
//! rigid MR jobs per operator with intermediate results materialised to
//! replicated HDFS, and per-job scheduling latency. To reproduce the
//! paper's comparisons without the authors' Hadoop/SystemML testbed, this
//! crate implements those costs faithfully on the same simulated cluster
//! (`cumulon-cluster`) and DFS (`cumulon-dfs`) that Cumulon-RS runs on:
//!
//! * [`engine`] — a generic MR engine: map tasks emit tagged tiles keyed by
//!   block coordinate; emitted bytes are charged as map-side spill (disk),
//!   shuffle fetch (network) and reduce-side merge (disk); every MR job
//!   additionally pays a scheduling latency. Both map and reduce tasks run
//!   real tile math, so baseline results are verifiable.
//! * [`systemml`] — matrix operators in the style SystemML executed on
//!   Hadoop MR1: replication-based matrix multiply (RMM, one job),
//!   cross-product multiply (CPMM, two jobs with replicated intermediate
//!   materialisation), shuffle-based element-wise/transpose operators, and
//!   an unfused op-at-a-time program executor.

#![warn(unreachable_pub)]

pub mod engine;
pub mod systemml;

pub use engine::{Emitter, MrConfig, MrEngine, MrJobSpec, ReduceKey, TaggedTile};
pub use systemml::{MrOp, MrProgram, MulStrategy};
