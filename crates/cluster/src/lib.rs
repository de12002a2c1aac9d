//! # cumulon-cluster
//!
//! The simulated cloud substrate Cumulon-RS deploys onto: a catalog of
//! EC2-2013-like instance types, a calibratable hardware timing model, a
//! discrete-event simulated cluster that executes *map-only* jobs (the
//! paper's Hadoop-without-MapReduce execution vehicle), hourly billing, and
//! failure injection.
//!
//! ## Simulated time, real math
//!
//! Tasks run real tile computations (via `cumulon-matrix`) against the
//! simulated DFS (`cumulon-dfs`), but elapsed time never comes from the
//! wall clock: each task accumulates a receipt of flops and bytes moved,
//! and the [`hw::HardwareModel`] converts that receipt into simulated
//! seconds given the instance type and slot contention. A seeded lognormal
//! multiplier models stragglers. The result is a deterministic,
//! laptop-scale stand-in for the paper's EC2/Hadoop testbed that preserves
//! every quantity the deployment optimizer reasons about: waves of tasks
//! over `nodes × slots`, CPU vs I/O balance, replication write costs,
//! memory-pressure penalties, startup overheads, and hour-quantized price.
//!
//! ## Layout
//!
//! * [`instances`] — the instance-type catalog (specs and $/hour);
//! * [`hw`] — receipt → seconds conversion, contention and noise;
//! * [`job`] — map-only jobs, tasks, task contexts and receipts;
//! * [`des`] — the discrete-event core (time type + event queue);
//! * [`cluster`] — cluster construction: DFS + tile store + spec;
//! * [`scheduler`] — wave scheduling of job DAGs with locality preference,
//!   task retry and node-failure handling;
//! * [`billing`] — hour-quantized cost accounting;
//! * [`metrics`] — run reports consumed by the optimizer's calibrator and
//!   the experiment harness.

#![warn(unreachable_pub)]

pub mod billing;
pub mod cluster;
pub mod des;
pub mod error;
pub mod hw;
pub mod instances;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod spot;

pub use cluster::{Cluster, ClusterSpec};
pub use error::{ClusterError, Result};
pub use hw::{HardwareModel, NoiseModel};
pub use instances::{catalog, InstanceType};
pub use job::{ExecMode, Job, JobDag, Task, TaskCtx, TaskReceipt, TileRef};
pub use metrics::{FaultStats, JobStats, RunReport};
pub use scheduler::{
    shared_spec_pool, FailurePlan, Revocation, RunFailure, Scheduler, SchedulerConfig, SpecPool,
};
pub use spot::SpotMarket;
// Re-exported so scheduler callers can drive tracing without naming the
// trace crate explicitly.
pub use cumulon_trace::{Trace, TraceLog};
