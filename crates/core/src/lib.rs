//! # cumulon-core
//!
//! The core of Cumulon-RS: everything between "a statistician writes a
//! matrix program" and "tasks run on a (simulated) cloud cluster".
//!
//! The pipeline mirrors the paper:
//!
//! 1. **Programs** ([`expr`]): matrix expressions over named inputs —
//!    multiply, element-wise arithmetic, transpose, scaling, scalar maps —
//!    with shape and density inference.
//! 2. **Logical rewrites** ([`rewrite`]): transpose pushdown (so physical
//!    operators read transposed tiles directly), common-subexpression
//!    elimination, and cost-based matrix-chain reordering.
//! 3. **Physical plans** ([`physical`], [`mod@lower`]): map-only job DAGs. The
//!    flagship operator is the split multiply — each task multiplies an
//!    `ri × rk` band of A by an `rk × rj` band of B; when the shared
//!    dimension is split (`rk < Kt`) partial results are summed by a
//!    follow-up Add job. Element-wise chains **fuse** into single jobs.
//!    Splits are optimizer-chosen parameters.
//! 4. **Cost models** ([`estimate`], [`calibrate`]): per-operator task-time
//!    models *fitted from benchmark runs* (never read off the simulator's
//!    internals), a wave-based job-completion-time estimator with a
//!    straggler correction, and plan-level composition.
//! 5. **Deployment optimization** ([`deploy`]): search over instance type ×
//!    cluster size × slots × plan parameters for minimum dollar cost under
//!    a deadline, minimum time under a budget, or the full time/cost
//!    Pareto skyline — under hour-quantized billing.
//!
//! The [`optimizer`] module ties it all together behind a small facade.

#![warn(unreachable_pub)]

pub mod calibrate;
pub mod deploy;
pub mod error;
pub mod estimate;
pub mod expr;
pub mod lower;
pub mod optimizer;
pub mod physical;
pub mod recovery;
pub mod rewrite;

pub use calibrate::{CostModel, OpCoefficients};
pub use deploy::{
    Constraint, DeploymentPlan, DeploymentSearch, Procurement, SearchSpace, SpotChoice,
    SpotSearchSpace,
};
pub use error::{CoreError, Result};
pub use estimate::{FailureModel, SpotHazard};
pub use expr::{ExprId, InputDesc, Program, ProgramBuilder, UnaryOp};
pub use lower::lower;
pub use optimizer::Optimizer;
pub use physical::{MatRef, MulSplit, PhysJob, PhysPlan};
pub use recovery::{run_with_recovery, run_with_recovery_traced, RecoveryConfig};
// Re-exported so traced execution drivers need not name the trace crate.
pub use cumulon_trace::{PhaseBreakdown, Trace, TraceLog};
