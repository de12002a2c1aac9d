//! Multiply-chain microworkloads for the optimizer experiments: skewed
//! dimension chains where association order changes cost by orders of
//! magnitude, and square chains for scaling sweeps.

use std::collections::BTreeMap;

use cumulon_core::error::CoreError;
use cumulon_core::expr::{InputDesc, ProgramBuilder};
use cumulon_core::{Program, Result};
use cumulon_dfs::TileStore;
use cumulon_matrix::gen::Generator;
use cumulon_matrix::MatrixMeta;

use crate::Workload;

/// A chain `M0 × M1 × … × M_{f-1}` described by its boundary dimensions:
/// factor `i` is `dims[i] × dims[i+1]`.
#[derive(Debug, Clone)]
pub struct MulChain {
    /// `factors + 1` boundary dimensions.
    pub dims: Vec<usize>,
    /// Tile side length.
    pub tile_size: usize,
    /// Data seed.
    pub seed: u64,
}

impl MulChain {
    /// A square chain: `factors` matrices of `n×n`.
    pub fn square(n: usize, factors: usize, tile_size: usize, seed: u64) -> Self {
        MulChain {
            dims: vec![n; factors + 1],
            tile_size,
            seed,
        }
    }

    /// The classic skewed three-factor chain `(thin × wide × thin)` where
    /// association order matters enormously.
    #[cfg(test)]
    pub(crate) fn skewed(thin: usize, wide: usize, tile_size: usize, seed: u64) -> Self {
        MulChain {
            dims: vec![thin, wide, thin, wide],
            tile_size,
            seed,
        }
    }

    /// Number of factors.
    pub(crate) fn factors(&self) -> usize {
        self.dims.len() - 1
    }

    fn factor_name(i: usize) -> String {
        format!("M{i}")
    }

    fn factor_meta(&self, i: usize) -> MatrixMeta {
        MatrixMeta::new(self.dims[i], self.dims[i + 1], self.tile_size)
    }
}

impl Workload for MulChain {
    fn name(&self) -> &'static str {
        "mul-chain"
    }

    fn inputs(&self, _iter: usize) -> BTreeMap<String, InputDesc> {
        (0..self.factors())
            .map(|i| {
                (
                    Self::factor_name(i),
                    InputDesc::dense(self.factor_meta(i)).generated(),
                )
            })
            .collect()
    }

    fn setup(&self, store: &TileStore) -> Result<()> {
        for i in 0..self.factors() {
            store
                .register_generated(
                    &Self::factor_name(i),
                    self.factor_meta(i),
                    Generator::DenseUniform {
                        seed: self.seed.wrapping_add(i as u64),
                        lo: -1.0,
                        hi: 1.0,
                    },
                )
                .map_err(CoreError::from)?;
        }
        Ok(())
    }

    fn program(&self, _iter: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let factors: Vec<_> = (0..self.factors())
            .map(|i| b.input(&Self::factor_name(i)))
            .collect();
        let chain = b.mul_chain(&factors);
        b.output("CHAIN", chain);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cumulon_cluster::{Cluster, ClusterSpec, ExecMode};

    use cumulon_core::Optimizer;

    fn optimizer() -> Optimizer {
        Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
    }

    #[test]
    fn chain_executes_correctly() {
        let chain = MulChain {
            dims: vec![8, 12, 6, 10],
            tile_size: 4,
            seed: 5,
        };
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        chain.setup(cluster.store()).unwrap();
        let opt = optimizer();
        opt.execute_on(
            &cluster,
            &chain.program(0),
            &chain.inputs(0),
            "c",
            ExecMode::Real,
        )
        .unwrap();
        let got = cluster.store().get_local("CHAIN").unwrap();
        // Reference: left-associated local multiply.
        let m0 = cluster.store().get_local("M0").unwrap();
        let m1 = cluster.store().get_local("M1").unwrap();
        let m2 = cluster.store().get_local("M2").unwrap();
        let expect = m0.matmul(&m1).unwrap().matmul(&m2).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-6);
    }

    #[test]
    fn reordering_beats_naive_on_skewed_chain() {
        // thin=200, wide=4000: (M0 M1) M2 forms a 200×200 intermediate;
        // M0 (M1 M2) would form 4000×4000.
        let chain = MulChain::skewed(200, 4_000, 100, 1);
        let program = chain.program(0);
        let inputs = chain.inputs(0);
        let naive = cumulon_core::rewrite::chain::program_mul_cost(
            &program,
            &inputs,
            &cumulon_core::rewrite::chain::flops_cost,
        )
        .unwrap();
        let opt = optimizer();
        let rewritten = opt.rewrite(&program, &inputs).unwrap();
        let optimal = cumulon_core::rewrite::chain::program_mul_cost(
            &rewritten,
            &inputs,
            &cumulon_core::rewrite::chain::flops_cost,
        )
        .unwrap();
        assert!(optimal <= naive, "{optimal} vs {naive}");
    }

    #[test]
    fn builders() {
        let sq = MulChain::square(100, 4, 10, 0);
        assert_eq!(sq.factors(), 4);
        let sk = MulChain::skewed(10, 1000, 10, 0);
        assert_eq!(sk.factors(), 3);
        assert_eq!(sk.factor_meta(1).rows, 1000);
    }
}
