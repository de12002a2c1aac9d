//! Gaussian non-negative matrix factorisation (GNMF).
//!
//! Factorises a sparse non-negative `V (m×n)` as `W (m×r) × H (r×n)` with
//! the classic multiplicative updates
//!
//! ```text
//! H ← H ⊙ (Wᵀ V) ⊘ ((Wᵀ W) H)
//! W ← W ⊙ (V Hᵀ) ⊘ (W (H Hᵀ))
//! ```
//!
//! One iteration is a single Cumulon program with two outputs; the planner
//! materialises the four matrix products as multiply jobs and fuses the
//! element-wise update arithmetic around them. This is the paper's flagship
//! iterative sparse workload: the big sparse `V` participates in two
//! products per iteration while the thin factors stay dense.

use std::collections::BTreeMap;

use cumulon_cluster::{Cluster, ExecMode, RunReport};
use cumulon_core::error::CoreError;
use cumulon_core::expr::{InputDesc, ProgramBuilder};
use cumulon_core::{Optimizer, Program, Result};
use cumulon_dfs::TileStore;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::MatrixMeta;

use crate::Workload;

/// GNMF workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct Gnmf {
    /// Rows of `V` (e.g. documents).
    pub m: usize,
    /// Columns of `V` (e.g. terms).
    pub n: usize,
    /// Factorisation rank.
    pub rank: usize,
    /// Tile side length.
    pub tile_size: usize,
    /// Density of `V`.
    pub density: f64,
    /// Data seed.
    pub seed: u64,
}

impl Gnmf {
    /// Name of the `W` factor at iteration `iter`.
    pub fn w_name(iter: usize) -> String {
        format!("W_{iter}")
    }

    /// Name of the `H` factor at iteration `iter`.
    pub fn h_name(iter: usize) -> String {
        format!("H_{iter}")
    }

    fn v_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.m, self.n, self.tile_size)
    }

    fn w_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.m, self.rank, self.tile_size)
    }

    fn h_meta(&self) -> MatrixMeta {
        MatrixMeta::new(self.rank, self.n, self.tile_size)
    }

    /// Driver loop: runs `iters` iterations on a provisioned cluster whose
    /// store already holds the inputs (see [`Workload::setup`]). Returns
    /// one run report per iteration.
    pub fn run(
        &self,
        optimizer: &Optimizer,
        cluster: &Cluster,
        iters: usize,
        mode: ExecMode,
    ) -> Result<Vec<RunReport>> {
        let mut reports = Vec::with_capacity(iters);
        for iter in 0..iters {
            let program = self.program(iter);
            let inputs = self.inputs(iter);
            let report =
                optimizer.execute_on(cluster, &program, &inputs, &format!("gnmf{iter}"), mode)?;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Driver-side objective `‖V − W H‖_F` (real mode, small scale only).
    pub fn objective(&self, store: &TileStore, iter: usize) -> Result<f64> {
        let v = store.get_local("V").map_err(CoreError::from)?;
        let w = store
            .get_local(&Self::w_name(iter))
            .map_err(CoreError::from)?;
        let h = store
            .get_local(&Self::h_name(iter))
            .map_err(CoreError::from)?;
        let wh = w.matmul(&h).map_err(|e| CoreError::Exec(e.to_string()))?;
        let diff = v
            .elementwise(&wh, ElemOp::Sub)
            .map_err(|e| CoreError::Exec(e.to_string()))?;
        Ok(diff.frob_norm())
    }
}

impl Workload for Gnmf {
    fn name(&self) -> &'static str {
        "gnmf"
    }

    fn inputs(&self, iter: usize) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        let mut v = InputDesc::sparse(self.v_meta(), self.density);
        v.generated = true;
        m.insert("V".into(), v);
        let generated = iter == 0;
        let mut w = InputDesc::dense(self.w_meta());
        w.generated = generated;
        let mut h = InputDesc::dense(self.h_meta());
        h.generated = generated;
        m.insert(Self::w_name(iter), w);
        m.insert(Self::h_name(iter), h);
        m
    }

    fn setup(&self, store: &TileStore) -> Result<()> {
        store
            .register_generated(
                "V",
                self.v_meta(),
                Generator::SparseUniform {
                    seed: self.seed,
                    density: self.density,
                },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(
                &Self::w_name(0),
                self.w_meta(),
                Generator::DenseUniform {
                    seed: self.seed ^ 0x57,
                    lo: 0.05,
                    hi: 1.0,
                },
            )
            .map_err(CoreError::from)?;
        store
            .register_generated(
                &Self::h_name(0),
                self.h_meta(),
                Generator::DenseUniform {
                    seed: self.seed ^ 0x48,
                    lo: 0.05,
                    hi: 1.0,
                },
            )
            .map_err(CoreError::from)?;
        Ok(())
    }

    fn program(&self, iter: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let v = b.input("V");
        let w = b.input(&Self::w_name(iter));
        let h = b.input(&Self::h_name(iter));

        // H' = H ⊙ (WᵀV) ⊘ ((WᵀW) H)
        let wt = b.transpose(w);
        let wtv = b.mul(wt, v);
        let wtw = b.mul(wt, w);
        let wtwh = b.mul(wtw, h);
        let h_num = b.elem_mul(h, wtv);
        let h_next = b.elem_div(h_num, wtwh);

        // W' = W ⊙ (V H'ᵀ) ⊘ (W (H' H'ᵀ))
        let ht = b.transpose(h_next);
        let vht = b.mul(v, ht);
        let hht = b.mul(h_next, ht);
        let whht = b.mul(w, hht);
        let w_num = b.elem_mul(w, vht);
        let w_next = b.elem_div(w_num, whht);

        b.output(&Self::h_name(iter + 1), h_next);
        b.output(&Self::w_name(iter + 1), w_next);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cumulon_cluster::ClusterSpec;

    fn optimizer() -> Optimizer {
        Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
    }

    fn small() -> Gnmf {
        Gnmf {
            m: 24,
            n: 18,
            rank: 4,
            tile_size: 6,
            density: 0.4,
            seed: 11,
        }
    }

    #[test]
    fn objective_decreases_over_iterations() {
        let g = small();
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        g.setup(cluster.store()).unwrap();
        let opt = optimizer();
        g.run(&opt, &cluster, 3, ExecMode::Real).unwrap();
        let o0 = g.objective(cluster.store(), 1).unwrap();
        let o1 = g.objective(cluster.store(), 2).unwrap();
        let o2 = g.objective(cluster.store(), 3).unwrap();
        assert!(
            o1 <= o0 * 1.0001,
            "iteration must not increase objective: {o0} -> {o1}"
        );
        assert!(o2 <= o1 * 1.0001, "{o1} -> {o2}");
    }

    #[test]
    fn factors_stay_nonnegative() {
        let g = small();
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        g.setup(cluster.store()).unwrap();
        let opt = optimizer();
        g.run(&opt, &cluster, 2, ExecMode::Real).unwrap();
        for name in [Gnmf::w_name(2), Gnmf::h_name(2)] {
            let m = cluster.store().get_local(&name).unwrap();
            let data = m.to_dense_vec().unwrap();
            assert!(data.iter().all(|&v| v >= 0.0), "{name} went negative");
        }
    }

    #[test]
    fn iteration_program_shapes_infer() {
        let g = small();
        let program = g.program(0);
        let info = program.infer(&g.inputs(0)).unwrap();
        // Outputs: H_1 is rank×n, W_1 is m×rank.
        let h_root = program.outputs.iter().find(|(n, _)| n == "H_1").unwrap().1;
        let w_root = program.outputs.iter().find(|(n, _)| n == "W_1").unwrap().1;
        assert_eq!((info[h_root].meta.rows, info[h_root].meta.cols), (4, 18));
        assert_eq!((info[w_root].meta.rows, info[w_root].meta.cols), (24, 4));
    }

    #[test]
    fn phantom_iteration_at_scale() {
        let g = Gnmf {
            m: 10_000,
            n: 10_000,
            rank: 20,
            tile_size: 1000,
            density: 0.01,
            seed: 1,
        };
        let cluster = Cluster::provision(ClusterSpec::named("c1.xlarge", 4, 8).unwrap()).unwrap();
        g.setup(cluster.store()).unwrap();
        let opt = optimizer();
        let reports = g.run(&opt, &cluster, 1, ExecMode::Simulated).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].makespan_s > 0.0);
        // Sparse V must make the V-products far cheaper than dense m·n·r.
        let total_flops: f64 = reports[0].jobs.iter().map(|j| j.receipt.work.flops).sum();
        let dense_equiv = 2.0 * 10_000f64 * 10_000.0 * 20.0 * 4.0;
        assert!(
            total_flops < dense_equiv,
            "sparsity exploited: {total_flops} < {dense_equiv}"
        );
    }
}
