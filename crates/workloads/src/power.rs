//! Sparse power iteration (PageRank-style dominant-eigenvector solver).
//!
//! Iterates `x ← P x / ‖P x‖` over a big sparse `P`. The matrix-vector
//! product runs on the cluster; the driver folds the normalisation into the
//! *next* iteration's program as a scale factor, so no vector ever needs
//! rewriting in place.

use std::collections::BTreeMap;

#[cfg(test)]
use cumulon_cluster::{Cluster, ExecMode, RunReport};
use cumulon_core::error::CoreError;
use cumulon_core::expr::{InputDesc, ProgramBuilder};
#[cfg(test)]
use cumulon_core::Optimizer;
use cumulon_core::{Program, Result};
use cumulon_dfs::TileStore;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::MatrixMeta;

use crate::Workload;

/// Power-iteration workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct PowerIteration {
    /// Dimension of the square sparse matrix.
    pub n: usize,
    /// Tile side length.
    pub tile_size: usize,
    /// Density of `P`.
    pub density: f64,
    /// Data seed.
    pub seed: u64,
}

/// Result of a driver-run power iteration.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct PowerResult {
    /// Rayleigh-quotient style estimates `‖y_i‖ / ‖x_i‖` per iteration.
    pub eigenvalue_estimates: Vec<f64>,
    /// Per-iteration run reports.
    pub reports: Vec<RunReport>,
}

impl PowerIteration {
    fn p_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.n, self.n, self.tile_size)
    }

    fn x_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.n, 1, self.tile_size)
    }

    fn x_name(iter: usize) -> String {
        format!("x_{iter}")
    }

    /// Program of iteration `iter`: `x_{iter+1} = scale · (P x_iter)`,
    /// where `scale` normalises the previous product.
    pub(crate) fn step_program(&self, iter: usize, scale: f64) -> Program {
        let mut b = ProgramBuilder::new();
        let p = b.input("P");
        let x = b.input(&Self::x_name(iter));
        let xs = b.scale(x, scale);
        let y = b.mul(p, xs);
        b.output(&Self::x_name(iter + 1), y);
        b.build()
    }

    fn step_inputs(&self, iter: usize) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert(
            "P".into(),
            InputDesc::sparse(self.p_meta(), self.density).generated(),
        );
        let mut x = InputDesc::dense(self.x_meta());
        x.generated = iter == 0;
        m.insert(Self::x_name(iter), x);
        m
    }

    /// Driver loop with normalisation folded into the programs (real mode;
    /// in simulated mode the normalisation scale stays 1).
    #[cfg(test)]
    pub(crate) fn run(
        &self,
        optimizer: &Optimizer,
        cluster: &Cluster,
        iters: usize,
        mode: ExecMode,
    ) -> Result<PowerResult> {
        let mut scale = 1.0;
        let mut estimates = Vec::with_capacity(iters);
        let mut reports = Vec::with_capacity(iters);
        for iter in 0..iters {
            let report = optimizer.execute_on(
                cluster,
                &self.step_program(iter, scale),
                &self.step_inputs(iter),
                &format!("pw{iter}"),
                mode,
            )?;
            reports.push(report);
            if mode == ExecMode::Real {
                let y = self.vector_norm(cluster.store(), iter + 1)?;
                // `y = P x̂` with `x̂` unit-norm, so ‖y‖ estimates |λ₁|.
                estimates.push(y);
                scale = if y > 0.0 { 1.0 / y } else { 1.0 };
            } else {
                estimates.push(f64::NAN);
            }
        }
        Ok(PowerResult {
            eigenvalue_estimates: estimates,
            reports,
        })
    }

    #[cfg(test)]
    fn vector_norm(&self, store: &TileStore, iter: usize) -> Result<f64> {
        let x = store
            .get_local(&Self::x_name(iter))
            .map_err(CoreError::from)?;
        Ok(x.frob_norm())
    }
}

impl Workload for PowerIteration {
    fn name(&self) -> &'static str {
        "power-iteration"
    }

    fn inputs(&self, iter: usize) -> BTreeMap<String, InputDesc> {
        self.step_inputs(iter)
    }

    fn setup(&self, store: &TileStore) -> Result<()> {
        store
            .register_generated(
                "P",
                self.p_meta(),
                Generator::SparseUniform {
                    seed: self.seed,
                    density: self.density,
                },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(
                &Self::x_name(0),
                self.x_meta(),
                Generator::DenseUniform {
                    seed: self.seed ^ 0x11,
                    lo: 0.5,
                    hi: 1.0,
                },
            )
            .map_err(CoreError::from)?;
        Ok(())
    }

    fn program(&self, iter: usize) -> Program {
        self.step_program(iter, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallmat::{jacobi_eigenvalues, SmallMat};

    use cumulon_cluster::ClusterSpec;

    fn optimizer() -> Optimizer {
        Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // small dense mat-vec check
    fn converges_to_dominant_eigenvalue_magnitude() {
        let w = PowerIteration {
            n: 24,
            tile_size: 6,
            density: 0.5,
            seed: 7,
        };
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        w.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let result = w.run(&opt, &cluster, 30, ExecMode::Real).unwrap();

        // The generated P is entrywise non-negative, so by Perron-Frobenius
        // the dominant eigenvalue is real positive and power iteration
        // converges to it.
        let p = cluster.store().get_local("P").unwrap();
        let pm = SmallMat::new(24, 24, p.to_dense_vec().unwrap());
        // Eigenvalues of the symmetrised similar problem don't equal those
        // of P; instead verify the fixed point: successive estimates agree.
        let est = &result.eigenvalue_estimates;
        let last = est[est.len() - 1];
        let prev = est[est.len() - 2];
        assert!(
            (last - prev).abs() / last < 1e-6,
            "not converged: {prev} vs {last}"
        );
        // And λ·x ≈ P x at the fixed point.
        let x = cluster
            .store()
            .get_local(&PowerIteration::x_name(30))
            .unwrap();
        let xv = x.to_dense_vec().unwrap();
        let norm: f64 = xv.iter().map(|v| v * v).sum::<f64>().sqrt();
        let xhat: Vec<f64> = xv.iter().map(|v| v / norm).collect();
        let mut px = [0.0; 24];
        for i in 0..24 {
            for j in 0..24 {
                px[i] += pm.get(i, j) * xhat[j];
            }
        }
        for i in 0..24 {
            assert!(
                (px[i] - last * xhat[i]).abs() < 1e-4 * last,
                "residual at {i}"
            );
        }
        let _ = jacobi_eigenvalues; // symmetric-only helper unused here
    }

    #[test]
    fn phantom_mode_runs() {
        let w = PowerIteration {
            n: 50_000,
            tile_size: 1000,
            density: 0.001,
            seed: 3,
        };
        let cluster = Cluster::provision(ClusterSpec::named("m1.xlarge", 8, 4).unwrap()).unwrap();
        w.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let result = w.run(&opt, &cluster, 2, ExecMode::Simulated).unwrap();
        assert_eq!(result.reports.len(), 2);
        assert!(result.eigenvalue_estimates.iter().all(|e| e.is_nan()));
    }
}
