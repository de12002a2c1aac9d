//! # cumulon-workloads
//!
//! The statistical workloads used throughout the paper's evaluation,
//! expressed as Cumulon matrix programs plus the thin driver-side logic
//! that stitches iterations together:
//!
//! * [`gnmf`] — Gaussian non-negative matrix factorisation over a sparse
//!   document-term matrix (multiplicative updates);
//! * [`rsvd`] — randomized SVD: the cluster computes the heavy sketching
//!   products;
//! * [`regression`] — linear least squares, both one-shot via normal
//!   equations and iterative gradient descent (ridge-regularised);
//! * [`power`] — sparse power iteration (PageRank-style);
//! * [`chains`] — multiply-chain microworkloads for the optimizer
//!   experiments;
//! * [`smallmat`] — from-scratch driver-side dense kernels for the small
//!   matrices that never leave the driver.
//!
//! The driver-side finishes — RSVD's small `k×k` factorisations, the
//! normal-equation solve and gradient-descent loop, the normalised power
//! loop — and the `smallmat` kernels only they use (Cholesky, triangular
//! solves, Jacobi eigenvalues, Gaussian elimination) are built for tests
//! only, which check the workloads' numerics against them.

#![warn(unreachable_pub)]

pub mod chains;
pub mod checkpoint;
pub mod elastic;
pub mod gnmf;
pub mod power;
pub mod regression;
pub mod rsvd;
pub mod smallmat;

pub use checkpoint::{run_checkpointed, CheckpointPolicy, CheckpointedRun};
pub use elastic::{run_elastic, ElasticDecision, ElasticPolicy, ElasticRun};

use std::collections::BTreeMap;

use cumulon_core::expr::InputDesc;
use cumulon_core::Result;
use cumulon_dfs::TileStore;

/// A workload: named generated inputs plus per-iteration programs.
pub trait Workload {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Input descriptions for iteration `iter` (names include iteration
    /// suffixes where state evolves).
    fn inputs(&self, iter: usize) -> BTreeMap<String, InputDesc>;

    /// Registers iteration-0 inputs in a store.
    fn setup(&self, store: &TileStore) -> Result<()>;

    /// The matrix program of iteration `iter`.
    fn program(&self, iter: usize) -> cumulon_core::Program;
}
