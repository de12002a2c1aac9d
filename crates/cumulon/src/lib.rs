//! # Cumulon-RS
//!
//! A from-scratch Rust reproduction of *Cumulon: Optimizing Statistical
//! Data Analysis in the Cloud* (Huang, Babu, Yang; SIGMOD 2013): a system
//! for developing and intelligently deploying matrix-based big-data
//! analysis programs in the cloud.
//!
//! This facade re-exports the whole stack:
//!
//! * [`matrix`] — tiled dense/sparse linear algebra (with phantom tiles for
//!   simulated-scale runs);
//! * [`dfs`] — the simulated HDFS-like distributed file system + tile store;
//! * [`cluster`] — the simulated cloud: instance catalog, hardware model,
//!   map-only job scheduler, hourly billing, failure injection;
//! * [`mr`] — the MapReduce/SystemML-style baseline engine;
//! * [`core`] — matrix programs, logical rewrites, split-parameterised
//!   physical plans, calibrated cost models and the deployment optimizer;
//! * [`trace`] — span-level run tracing: Chrome/Perfetto timeline export,
//!   slot-utilization and critical-path reports;
//! * [`workloads`] — GNMF, RSVD, regression, power iteration, chains;
//! * [`serve`] — the multi-tenant optimization service behind
//!   `cumulon serve`;
//! * [`check`] — the cross-layer invariant checker behind `cumulon check`.
//!
//! ## Quickstart
//!
//! ```
//! use cumulon::prelude::*;
//! use std::collections::BTreeMap;
//!
//! // 1. Write a matrix program: G = AᵀA.
//! let mut b = ProgramBuilder::new();
//! let a = b.input("A");
//! let at = b.transpose(a);
//! let g = b.mul(at, a);
//! b.output("G", g);
//! let program = b.build();
//!
//! // 2. Describe the input.
//! let meta = MatrixMeta::new(200, 80, 50);
//! let mut inputs = BTreeMap::new();
//! inputs.insert("A".to_string(), InputDesc::dense(meta));
//!
//! // 3. Ask the optimizer for the cheapest deployment under a deadline.
//! let optimizer = Optimizer::new(idealized_cost_model());
//! let plan = optimizer
//!     .optimize(&program, &inputs, SearchSpace::quick(), Constraint::Deadline(7200.0))
//!     .unwrap();
//!
//! // 4. Provision, load data, run — and verify the result numerically.
//! let cluster = optimizer.provision(&plan).unwrap();
//! let data = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 7 });
//! cluster.store().put_local("A", &data).unwrap();
//! let report = optimizer
//!     .execute_on(&cluster, &program, &inputs, "run0", ExecMode::Real)
//!     .unwrap();
//! assert!(report.cost_dollars > 0.0);
//! let got = cluster.store().get_local("G").unwrap();
//! let expect = data.transpose().matmul(&data).unwrap();
//! assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
//! ```

#![warn(unreachable_pub)]

pub mod cli;

pub use cumulon_check as check;
pub use cumulon_cluster as cluster;
pub use cumulon_core as core;
pub use cumulon_dfs as dfs;
pub use cumulon_lang as lang;
pub use cumulon_matrix as matrix;
pub use cumulon_mr as mr;
pub use cumulon_serve as serve;
pub use cumulon_trace as trace;
pub use cumulon_workloads as workloads;

pub use cumulon_core::calibrate::idealized_cost_model;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::idealized_cost_model;
    pub use cumulon_cluster::billing::BillingPolicy;
    pub use cumulon_cluster::{
        catalog, Cluster, ClusterSpec, ExecMode, HardwareModel, InstanceType, RunReport,
    };
    pub use cumulon_core::expr::{InputDesc, ProgramBuilder, UnaryOp};
    pub use cumulon_core::{
        Constraint, CostModel, DeploymentPlan, Optimizer, Program, SearchSpace,
    };
    pub use cumulon_dfs::{Dfs, DfsConfig, TileStore};
    pub use cumulon_lang::{compile_source, CompiledScript};
    pub use cumulon_matrix::gen::Generator;
    pub use cumulon_matrix::{LocalMatrix, MatrixMeta, Tile};
    pub use cumulon_mr::{MrConfig, MrEngine, MrOp, MrProgram, MulStrategy};
    pub use cumulon_workloads::chains::MulChain;
    pub use cumulon_workloads::gnmf::Gnmf;
    pub use cumulon_workloads::power::PowerIteration;
    pub use cumulon_workloads::regression::Regression;
    pub use cumulon_workloads::rsvd::Rsvd;
    pub use cumulon_workloads::Workload;
}

#[cfg(test)]
mod tests {
    #[test]
    fn idealized_model_covers_catalog() {
        let m = super::idealized_cost_model();
        for i in cumulon_cluster::instances::catalog() {
            assert!(m.for_instance(i.name).is_some(), "{} missing", i.name);
        }
    }
}
