//! Randomized SVD (RSVD).
//!
//! The cluster does the heavy lifting — sketching a big `A (m×n)` with a
//! Gaussian test matrix `Ω (n×k)` and optional power iterations — while the
//! driver finishes with `k×k` factorisations:
//!
//! ```text
//! Y   = A Ω                 (cluster; optionally (A Aᵀ)^q A Ω)
//! G1  = Yᵀ Y                (cluster, k×k)
//! B   = Aᵀ Y                (cluster, n×k, shared)
//! G2  = Bᵀ B                (cluster, k×k)
//! R   = chol(G1)            (driver)
//! σ_i = sqrt(eig(R⁻ᵀ G2 R⁻¹))   (driver)
//! ```
//!
//! With `Q = Y R⁻¹` orthonormal, `R⁻ᵀ G2 R⁻¹ = (QᵀA)(QᵀA)ᵀ`, whose
//! eigenvalues are the squared singular values of the projected matrix —
//! the classic RSVD estimate.

use std::collections::BTreeMap;

use cumulon_cluster::{Cluster, ExecMode, RunReport};
use cumulon_core::error::CoreError;
use cumulon_core::expr::{InputDesc, ProgramBuilder};
use cumulon_core::{Optimizer, Program, Result};
use cumulon_dfs::TileStore;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::MatrixMeta;

#[cfg(test)]
use crate::smallmat::{cholesky, invert_upper, jacobi_eigenvalues, SmallMat};
use crate::Workload;

/// RSVD workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct Rsvd {
    /// Rows of `A`.
    pub m: usize,
    /// Columns of `A`.
    pub n: usize,
    /// Sketch width (target rank + oversampling).
    pub k: usize,
    /// Tile side length.
    pub tile_size: usize,
    /// Number of power iterations (0 = plain sketch).
    pub power_iters: usize,
    /// Data seed.
    pub seed: u64,
}

impl Rsvd {
    fn a_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.m, self.n, self.tile_size)
    }

    fn omega_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.n, self.k, self.tile_size)
    }

    /// Runs the full pipeline, returning per-step run reports.
    pub fn run(
        &self,
        optimizer: &Optimizer,
        cluster: &Cluster,
        mode: ExecMode,
    ) -> Result<Vec<RunReport>> {
        let mut reports = Vec::new();
        for step in 0..=self.power_iters {
            let report = optimizer.execute_on(
                cluster,
                &self.program(step),
                &self.inputs(step),
                &format!("rsvd{step}"),
                mode,
            )?;
            reports.push(report);
        }
        // Final Gram step.
        let step = self.power_iters + 1;
        let report = optimizer.execute_on(
            cluster,
            &self.gram_program(),
            &self.gram_inputs(),
            &format!("rsvd{step}"),
            mode,
        )?;
        reports.push(report);
        Ok(reports)
    }

    fn y_name(step: usize) -> String {
        format!("Y_{step}")
    }

    fn final_y(&self) -> String {
        Self::y_name(self.power_iters)
    }

    /// The Gram-stage program: `G1 = YᵀY`, `B = AᵀY`, `G2 = BᵀB`.
    pub(crate) fn gram_program(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let y = b.input(&self.final_y());
        let yt = b.transpose(y);
        let g1 = b.mul(yt, y);
        let at = b.transpose(a);
        let bmat = b.mul(at, y);
        let bt = b.transpose(bmat);
        let g2 = b.mul(bt, bmat);
        b.output("G1", g1);
        b.output("G2", g2);
        b.build()
    }

    /// Inputs of the Gram stage.
    pub(crate) fn gram_inputs(&self) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("A".into(), InputDesc::dense(self.a_meta()).generated());
        m.insert(
            self.final_y(),
            InputDesc::dense(MatrixMeta::new(self.m, self.k, self.tile_size)),
        );
        m
    }

    /// Driver-side finish: approximate singular values, descending.
    #[cfg(test)]
    pub(crate) fn singular_values(&self, store: &TileStore) -> Result<Vec<f64>> {
        let g1 = fetch_small(store, "G1", self.k)?;
        let g2 = fetch_small(store, "G2", self.k)?;
        let r = cholesky(&g1)?;
        let rinv = invert_upper(&r);
        let mid = rinv.transpose().matmul(&g2).matmul(&rinv);
        let eig = jacobi_eigenvalues(&mid, 60)?;
        Ok(eig.into_iter().map(|e| e.max(0.0).sqrt()).collect())
    }
}

/// Fetches a small `k×k` matrix from the store into driver memory.
#[cfg(test)]
pub(crate) fn fetch_small(store: &TileStore, name: &str, k: usize) -> Result<SmallMat> {
    let local = store.get_local(name).map_err(CoreError::from)?;
    let data = local
        .to_dense_vec()
        .map_err(|e| CoreError::Exec(e.to_string()))?;
    Ok(SmallMat::new(k, k, data))
}

impl Workload for Rsvd {
    fn name(&self) -> &'static str {
        "rsvd"
    }

    fn inputs(&self, step: usize) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("A".into(), InputDesc::dense(self.a_meta()).generated());
        if step == 0 {
            m.insert(
                "Omega".into(),
                InputDesc::dense(self.omega_meta()).generated(),
            );
        } else {
            m.insert(
                Self::y_name(step - 1),
                InputDesc::dense(MatrixMeta::new(self.m, self.k, self.tile_size)),
            );
        }
        m
    }

    fn setup(&self, store: &TileStore) -> Result<()> {
        store
            .register_generated(
                "A",
                self.a_meta(),
                Generator::DenseGaussian { seed: self.seed },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(
                "Omega",
                self.omega_meta(),
                Generator::DenseGaussian {
                    seed: self.seed ^ 0x0e6a,
                },
            )
            .map_err(CoreError::from)?;
        Ok(())
    }

    /// Step 0: `Y_0 = A Ω`. Step `s>0`: `Y_s = A (Aᵀ Y_{s-1})` (one power
    /// iteration).
    fn program(&self, step: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let y = if step == 0 {
            let omega = b.input("Omega");
            b.mul(a, omega)
        } else {
            let prev = b.input(&Self::y_name(step - 1));
            let at = b.transpose(a);
            let aty = b.mul(at, prev);
            b.mul(a, aty)
        };
        b.output(&Self::y_name(step), y);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cumulon_cluster::ClusterSpec;

    use cumulon_matrix::LocalMatrix;

    fn optimizer() -> Optimizer {
        Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
    }

    /// Reference singular values via Jacobi on the full Gram matrix AᵀA.
    fn reference_singular_values(a: &LocalMatrix, n: usize) -> Vec<f64> {
        let at_a = a.transpose().matmul(a).unwrap();
        let g = SmallMat::new(n, n, at_a.to_dense_vec().unwrap());
        jacobi_eigenvalues(&g, 80)
            .unwrap()
            .into_iter()
            .map(|e| e.max(0.0).sqrt())
            .collect()
    }

    #[test]
    fn full_width_sketch_recovers_all_singular_values() {
        // k = n: the sketch spans the whole row space, so the RSVD values
        // must match the exact ones almost exactly.
        let r = Rsvd {
            m: 30,
            n: 8,
            k: 8,
            tile_size: 5,
            power_iters: 0,
            seed: 5,
        };
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        r.setup(cluster.store()).unwrap();
        let opt = optimizer();
        r.run(&opt, &cluster, ExecMode::Real).unwrap();
        let got = r.singular_values(cluster.store()).unwrap();
        let a = cluster.store().get_local("A").unwrap();
        let want = reference_singular_values(&a, 8);
        assert_eq!(got.len(), 8);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() / w < 1e-6, "got {g}, want {w}");
        }
    }

    #[test]
    fn power_iterations_sharpen_top_values() {
        let mk = |power_iters| {
            let r = Rsvd {
                m: 40,
                n: 20,
                k: 6,
                tile_size: 7,
                power_iters,
                seed: 9,
            };
            let cluster =
                Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
            r.setup(cluster.store()).unwrap();
            let opt = optimizer();
            r.run(&opt, &cluster, ExecMode::Real).unwrap();
            let got = r.singular_values(cluster.store()).unwrap();
            let a = cluster.store().get_local("A").unwrap();
            let want = reference_singular_values(&a, 20);
            // Relative error of the top-3 estimates.
            got.iter()
                .zip(want.iter())
                .take(3)
                .map(|(g, w)| (g - w).abs() / w)
                .fold(0.0f64, f64::max)
        };
        let err0 = mk(0);
        let err2 = mk(2);
        assert!(
            err2 <= err0 + 1e-9,
            "power iterations must not hurt: {err2} vs {err0}"
        );
        assert!(
            err2 < 0.12,
            "top values should be close after 2 power iterations: {err2}"
        );
    }

    #[test]
    fn sketch_values_lower_bound_truth() {
        // Projection can only shrink singular values.
        let r = Rsvd {
            m: 25,
            n: 12,
            k: 5,
            tile_size: 6,
            power_iters: 0,
            seed: 3,
        };
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        r.setup(cluster.store()).unwrap();
        let opt = optimizer();
        r.run(&opt, &cluster, ExecMode::Real).unwrap();
        let got = r.singular_values(cluster.store()).unwrap();
        let a = cluster.store().get_local("A").unwrap();
        let want = reference_singular_values(&a, 12);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!(*g <= w * (1.0 + 1e-9), "sketched {g} exceeds true {w}");
        }
    }

    #[test]
    fn phantom_pipeline_at_scale() {
        let r = Rsvd {
            m: 20_000,
            n: 10_000,
            k: 50,
            tile_size: 1000,
            power_iters: 1,
            seed: 1,
        };
        let cluster = Cluster::provision(ClusterSpec::named("c1.xlarge", 8, 8).unwrap()).unwrap();
        r.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let reports = r.run(&opt, &cluster, ExecMode::Simulated).unwrap();
        assert_eq!(reports.len(), 3); // sketch, power, gram
        assert!(reports.iter().all(|r| r.makespan_s > 0.0));
    }

    #[test]
    fn step_programs_infer() {
        let r = Rsvd {
            m: 100,
            n: 60,
            k: 10,
            tile_size: 20,
            power_iters: 2,
            seed: 1,
        };
        for step in 0..=2 {
            let p = r.program(step);
            let info = p.infer(&r.inputs(step)).unwrap();
            let (_, root) = &p.outputs[0];
            assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (100, 10));
        }
        let g = r.gram_program();
        let info = g.infer(&r.gram_inputs()).unwrap();
        for (_, root) in &g.outputs {
            assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (10, 10));
        }
    }
}
