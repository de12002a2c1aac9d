//! Linear least squares at cluster scale.
//!
//! Two routes to `w = argmin ‖Xw − y‖² + λ‖w‖²`:
//!
//! * **Normal equations** — one cluster program computes `G = XᵀX` and
//!   `b = Xᵀy`; the driver Cholesky-solves `(G + λI) w = b`. Best when the
//!   feature count `d` is driver-sized.
//! * **Gradient descent** — per-iteration cluster programs
//!   `w ← (1 − αλ) w − α Xᵀ(X w − y)`, the shape of iterative ML loops the
//!   paper targets.

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

#[cfg(test)]
use crate::smallmat::{cholesky, cholesky_solve, jacobi_eigenvalues, SmallMat};
use crate::Workload;

/// Regression workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct Regression {
    /// Observations (rows of `X`).
    pub rows: usize,
    /// Features (columns of `X`).
    pub features: usize,
    /// Tile side length.
    pub tile_size: usize,
    /// Ridge regulariser `λ`.
    pub lambda: f64,
    /// Data seed.
    pub seed: u64,
}

impl Regression {
    fn x_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.rows, self.features, self.tile_size)
    }

    fn y_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.rows, 1, self.tile_size)
    }

    fn w_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.features, 1, self.tile_size)
    }

    fn w_name(iter: usize) -> String {
        format!("w_{iter}")
    }

    /// The normal-equation program: outputs `G = XᵀX` and `b = Xᵀy`.
    pub fn normal_eq_program(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let x = b.input("X");
        let y = b.input("y");
        let xt = b.transpose(x);
        let g = b.mul(xt, x);
        let xty = b.mul(xt, y);
        b.output("G", g);
        b.output("b", xty);
        b.build()
    }

    /// Inputs of the normal-equation program.
    pub fn normal_eq_inputs(&self) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("X".into(), InputDesc::dense(self.x_meta()).generated());
        m.insert("y".into(), InputDesc::dense(self.y_meta()).generated());
        m
    }

    /// Runs the normal-equation route end to end, returning the solution.
    #[cfg(test)]
    pub(crate) fn solve_normal_eq(
        &self,
        optimizer: &Optimizer,
        cluster: &Cluster,
        mode: ExecMode,
    ) -> Result<(Vec<f64>, RunReport)> {
        let report = optimizer.execute_on(
            cluster,
            &self.normal_eq_program(),
            &self.normal_eq_inputs(),
            "ne",
            mode,
        )?;
        if mode == ExecMode::Simulated {
            return Ok((Vec::new(), report));
        }
        let d = self.features;
        let g_local = cluster.store().get_local("G").map_err(CoreError::from)?;
        let mut g = SmallMat::new(
            d,
            d,
            g_local
                .to_dense_vec()
                .map_err(|e| CoreError::Exec(e.to_string()))?,
        );
        for i in 0..d {
            g.set(i, i, g.get(i, i) + self.lambda);
        }
        let b_local = cluster.store().get_local("b").map_err(CoreError::from)?;
        let b = b_local
            .to_dense_vec()
            .map_err(|e| CoreError::Exec(e.to_string()))?;
        let r = cholesky(&g)?;
        Ok((cholesky_solve(&r, &b), report))
    }

    /// A stable gradient step size from the normal-equation Gram matrix:
    /// `α = 1 / λ_max(G + λI)`.
    #[cfg(test)]
    pub(crate) fn step_size(&self, store: &TileStore) -> Result<f64> {
        let d = self.features;
        let g_local = store.get_local("G").map_err(CoreError::from)?;
        let mut g = SmallMat::new(
            d,
            d,
            g_local
                .to_dense_vec()
                .map_err(|e| CoreError::Exec(e.to_string()))?,
        );
        for i in 0..d {
            g.set(i, i, g.get(i, i) + self.lambda);
        }
        let eig = jacobi_eigenvalues(&g, 60)?;
        let lmax = eig.first().copied().unwrap_or(1.0).max(1e-12);
        Ok(1.0 / lmax)
    }

    /// Gradient-descent program for one iteration, parameterised by `α`.
    pub(crate) fn gd_program(&self, iter: usize, alpha: f64) -> Program {
        let mut b = ProgramBuilder::new();
        let x = b.input("X");
        let y = b.input("y");
        let w = b.input(&Self::w_name(iter));
        // residual r = X w − y; gradient g = Xᵀ r; update
        // w' = (1 − αλ) w − α g.
        let xw = b.mul(x, w);
        let r = b.sub(xw, y);
        let xt = b.transpose(x);
        let g = b.mul(xt, r);
        let shrunk = b.scale(w, 1.0 - alpha * self.lambda);
        let step = b.scale(g, alpha);
        let w_next = b.sub(shrunk, step);
        b.output(&Self::w_name(iter + 1), w_next);
        b.build()
    }

    fn gd_inputs(&self, iter: usize) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("X".into(), InputDesc::dense(self.x_meta()).generated());
        m.insert("y".into(), InputDesc::dense(self.y_meta()).generated());
        let mut w = InputDesc::dense(self.w_meta());
        w.generated = iter == 0;
        m.insert(Self::w_name(iter), w);
        m
    }

    /// Runs `iters` gradient-descent iterations; returns the final iterate
    /// (empty in simulated mode) and the per-iteration reports.
    #[cfg(test)]
    pub(crate) fn run_gd(
        &self,
        optimizer: &Optimizer,
        cluster: &Cluster,
        iters: usize,
        alpha: f64,
        mode: ExecMode,
    ) -> Result<(Vec<f64>, Vec<RunReport>)> {
        let mut reports = Vec::with_capacity(iters);
        for iter in 0..iters {
            let report = optimizer.execute_on(
                cluster,
                &self.gd_program(iter, alpha),
                &self.gd_inputs(iter),
                &format!("gd{iter}"),
                mode,
            )?;
            reports.push(report);
        }
        if mode == ExecMode::Simulated {
            return Ok((Vec::new(), reports));
        }
        let w = cluster
            .store()
            .get_local(&Self::w_name(iters))
            .map_err(CoreError::from)?
            .to_dense_vec()
            .map_err(|e| CoreError::Exec(e.to_string()))?;
        Ok((w, reports))
    }
}

impl Workload for Regression {
    fn name(&self) -> &'static str {
        "regression"
    }

    fn inputs(&self, iter: usize) -> BTreeMap<String, InputDesc> {
        self.gd_inputs(iter)
    }

    fn setup(&self, store: &TileStore) -> Result<()> {
        store
            .register_generated(
                "X",
                self.x_meta(),
                Generator::DenseGaussian { seed: self.seed },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(
                "y",
                self.y_meta(),
                Generator::DenseGaussian {
                    seed: self.seed ^ 0x79,
                },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(&Self::w_name(0), self.w_meta(), Generator::Zeros)
            .map_err(CoreError::from)?;
        Ok(())
    }

    fn program(&self, iter: usize) -> Program {
        // Default α for the trait-level view; drivers use `step_size`.
        self.gd_program(iter, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cumulon_cluster::ClusterSpec;

    fn optimizer() -> Optimizer {
        Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
    }

    fn small() -> Regression {
        Regression {
            rows: 60,
            features: 5,
            tile_size: 8,
            lambda: 0.1,
            seed: 21,
        }
    }

    #[test]
    fn normal_equations_solve_least_squares() {
        let reg = small();
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        reg.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let (w, _) = reg.solve_normal_eq(&opt, &cluster, ExecMode::Real).unwrap();
        assert_eq!(w.len(), 5);
        // Verify the normal equations hold: (XᵀX + λI) w ≈ Xᵀ y.
        let x = cluster.store().get_local("X").unwrap();
        let y = cluster.store().get_local("y").unwrap();
        let xt = x.transpose();
        let g = xt.matmul(&x).unwrap().to_dense_vec().unwrap();
        let b = xt.matmul(&y).unwrap().to_dense_vec().unwrap();
        for i in 0..5 {
            let mut lhs = reg.lambda * w[i];
            for j in 0..5 {
                lhs += g[i * 5 + j] * w[j];
            }
            assert!((lhs - b[i]).abs() < 1e-8, "row {i}: {lhs} vs {}", b[i]);
        }
    }

    #[test]
    fn gradient_descent_converges_to_closed_form() {
        let reg = small();
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        reg.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let (w_star, _) = reg.solve_normal_eq(&opt, &cluster, ExecMode::Real).unwrap();
        let alpha = reg.step_size(cluster.store()).unwrap();
        let (w_gd, reports) = reg
            .run_gd(&opt, &cluster, 60, alpha, ExecMode::Real)
            .unwrap();
        assert_eq!(reports.len(), 60);
        let err: f64 = w_star
            .iter()
            .zip(w_gd.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale: f64 = w_star.iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-9);
        assert!(
            err / scale < 1e-3,
            "GD did not converge: max err {err} (scale {scale})"
        );
    }

    #[test]
    fn gd_iterates_shrink_residual() {
        let reg = small();
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        reg.setup(cluster.store()).unwrap();
        let opt = optimizer();
        reg.solve_normal_eq(&opt, &cluster, ExecMode::Real).unwrap();
        let alpha = reg.step_size(cluster.store()).unwrap();
        reg.run_gd(&opt, &cluster, 10, alpha, ExecMode::Real)
            .unwrap();
        let x = cluster.store().get_local("X").unwrap();
        let y = cluster.store().get_local("y").unwrap();
        let residual = |iter: usize| {
            let w = cluster
                .store()
                .get_local(&Regression::w_name(iter))
                .unwrap();
            let xw = x.matmul(&w).unwrap();
            xw.elementwise(&y, cumulon_matrix::tile::ElemOp::Sub)
                .unwrap()
                .frob_norm()
        };
        let r0 = residual(0);
        let r5 = residual(5);
        let r10 = residual(10);
        assert!(r5 < r0, "{r5} !< {r0}");
        assert!(r10 <= r5, "{r10} !<= {r5}");
    }

    #[test]
    fn simulated_mode_returns_reports_only() {
        let reg = Regression {
            rows: 100_000,
            features: 500,
            tile_size: 1000,
            lambda: 1.0,
            seed: 2,
        };
        let cluster = Cluster::provision(ClusterSpec::named("c1.xlarge", 4, 8).unwrap()).unwrap();
        reg.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let (w, report) = reg
            .solve_normal_eq(&opt, &cluster, ExecMode::Simulated)
            .unwrap();
        assert!(w.is_empty());
        assert!(report.makespan_s > 0.0);
    }
}
