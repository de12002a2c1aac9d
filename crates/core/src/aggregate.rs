//! Distributed scalar aggregates over stored matrices.
//!
//! Iterative workloads need scalars — objective values, norms, counts —
//! to drive convergence checks. Fetching a whole matrix to the driver
//! defeats the point at scale, so aggregates run as map-only jobs: each
//! task folds a chunk of tiles into one partial scalar, written as a 1×1
//! tile of a partials matrix; the driver sums the (tiny) partials.
//!
//! In phantom mode the data doesn't exist, so the value comes back as
//! `None` — but the run report still carries the cost of computing it,
//! which is what deployment planning cares about.

use std::sync::Arc;

use cumulon_cluster::{Cluster, ExecMode, Job, JobDag, RunReport, Task};
use cumulon_matrix::ops as mops;
use cumulon_matrix::{DenseTile, MatrixMeta, Tile};

use crate::error::{CoreError, Result};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of all elements.
    Sum,
    /// Sum of squared elements (squared Frobenius norm).
    FrobSq,
    /// Number of stored non-zeros.
    Nnz,
}

impl AggKind {
    fn fold(self, tile: &Tile) -> f64 {
        match self {
            AggKind::Sum => tile.sum(),
            AggKind::FrobSq => tile.frob_sq(),
            AggKind::Nnz => tile.nnz() as f64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::FrobSq => "frobsq",
            AggKind::Nnz => "nnz",
        }
    }
}

/// Computes an aggregate of a stored matrix on the cluster.
///
/// `tag` namespaces the partials matrix — pass something unique per call
/// (e.g. the iteration number). Returns `(value, report)`; the value is
/// `None` in [`ExecMode::Simulated`] runs.
pub fn aggregate(
    cluster: &Cluster,
    matrix: &str,
    kind: AggKind,
    tiles_per_task: usize,
    tag: &str,
    mode: ExecMode,
) -> Result<(Option<f64>, RunReport)> {
    let handle = cluster.store().lookup(matrix)?;
    let coords: Vec<(usize, usize)> = handle.meta.grid().iter().collect();
    let n_tasks = coords.len().div_ceil(tiles_per_task.max(1));
    let partials_name = format!("__agg_{}_{}_{tag}", kind.name(), matrix);
    let partials_meta = MatrixMeta::new(n_tasks, 1, 1);
    cluster.store().register(&partials_name, partials_meta)?;

    // One copy of each name, shared by every task of the job.
    let matrix: Arc<str> = Arc::from(matrix);
    let partials: Arc<str> = Arc::from(partials_name.as_str());
    let mut tasks = Vec::with_capacity(n_tasks);
    for (task_idx, chunk) in coords.chunks(tiles_per_task.max(1)).enumerate() {
        let chunk: Vec<(usize, usize)> = chunk.to_vec();
        let matrix_name = Arc::clone(&matrix);
        let partials_name = Arc::clone(&partials);
        let hint = chunk[0];
        tasks.push(
            Task::new(move |ctx| {
                let mut acc = 0.0;
                for &(ti, tj) in &chunk {
                    let tile = ctx.read_tile(&matrix_name, ti, tj)?;
                    ctx.charge(mops::map_work(&tile));
                    acc += kind.fold(&tile);
                }
                let out = Tile::dense(DenseTile::from_vec(1, 1, vec![acc]));
                ctx.write_tile(&partials_name, task_idx, 0, out)?;
                Ok(())
            })
            .with_locality(Arc::clone(&matrix), hint.0, hint.1),
        );
    }
    let mut dag = JobDag::new();
    dag.push(
        Job::new(format!("agg-{}({matrix})", kind.name()), "agg", tasks),
        vec![],
    );
    let report = cluster.run(&dag, mode).map_err(CoreError::from)?;

    let value = if mode == ExecMode::Real {
        let partials = cluster.store().get_local(&partials_name)?;
        Some(partials.sum())
    } else {
        None
    };
    // Partials are scratch; clean them up.
    cluster.store().drop_matrix(&partials_name)?;
    Ok((value, report))
}

/// Frobenius norm `‖M‖_F` of a stored matrix.
pub fn frobenius_norm(
    cluster: &Cluster,
    matrix: &str,
    tiles_per_task: usize,
    tag: &str,
    mode: ExecMode,
) -> Result<(Option<f64>, RunReport)> {
    let (v, report) = aggregate(cluster, matrix, AggKind::FrobSq, tiles_per_task, tag, mode)?;
    Ok((v.map(f64::sqrt), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_cluster::ClusterSpec;
    use cumulon_matrix::gen::Generator;
    use cumulon_matrix::LocalMatrix;

    fn cluster_with(meta: MatrixMeta, gen: Generator) -> (Cluster, LocalMatrix) {
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 3, 2).unwrap()).unwrap();
        let m = LocalMatrix::generate(meta, &gen);
        cluster.store().put_local("M", &m).unwrap();
        (cluster, m)
    }

    #[test]
    fn sum_matches_local() {
        let meta = MatrixMeta::new(20, 14, 5);
        let (cluster, m) = cluster_with(
            meta,
            Generator::DenseUniform {
                seed: 1,
                lo: -1.0,
                hi: 1.0,
            },
        );
        let (v, report) = aggregate(&cluster, "M", AggKind::Sum, 3, "t0", ExecMode::Real).unwrap();
        assert!((v.unwrap() - m.sum()).abs() < 1e-9);
        assert_eq!(report.jobs.len(), 1);
        assert!(report.jobs[0].tasks.len() > 1, "work split across tasks");
    }

    #[test]
    fn frobenius_matches_local() {
        let meta = MatrixMeta::new(12, 12, 4);
        let (cluster, m) = cluster_with(meta, Generator::DenseGaussian { seed: 2 });
        let (v, _) = frobenius_norm(&cluster, "M", 2, "t1", ExecMode::Real).unwrap();
        assert!((v.unwrap() - m.frob_norm()).abs() < 1e-9);
    }

    #[test]
    fn nnz_on_sparse_matrix() {
        let meta = MatrixMeta::new(30, 30, 10);
        let (cluster, m) = cluster_with(
            meta,
            Generator::SparseUniform {
                seed: 3,
                density: 0.2,
            },
        );
        let (v, _) = aggregate(&cluster, "M", AggKind::Nnz, 4, "t2", ExecMode::Real).unwrap();
        assert_eq!(v.unwrap() as u64, m.nnz());
    }

    #[test]
    fn simulated_mode_returns_cost_only() {
        let cluster = Cluster::provision(ClusterSpec::named("c1.xlarge", 4, 8).unwrap()).unwrap();
        let meta = MatrixMeta::new(20_000, 20_000, 1_000);
        cluster
            .store()
            .register_generated("BIG", meta, Generator::DenseGaussian { seed: 1 })
            .unwrap();
        let (v, report) = aggregate(
            &cluster,
            "BIG",
            AggKind::FrobSq,
            16,
            "t3",
            ExecMode::Simulated,
        )
        .unwrap();
        assert!(v.is_none());
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn partials_cleaned_up_and_tags_reusable() {
        let meta = MatrixMeta::new(8, 8, 4);
        let (cluster, _) = cluster_with(meta, Generator::DenseGaussian { seed: 4 });
        aggregate(&cluster, "M", AggKind::Sum, 2, "same", ExecMode::Real).unwrap();
        // Same tag again: would collide if partials weren't dropped.
        aggregate(&cluster, "M", AggKind::Sum, 2, "same", ExecMode::Real).unwrap();
        assert!(!cluster
            .store()
            .names()
            .iter()
            .any(|n| n.starts_with("__agg_")));
    }

    #[test]
    fn missing_matrix_errors() {
        let cluster = Cluster::provision(ClusterSpec::named("m1.small", 1, 1).unwrap()).unwrap();
        assert!(aggregate(&cluster, "nope", AggKind::Sum, 1, "t", ExecMode::Real).is_err());
    }
}
