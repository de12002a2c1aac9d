//! Physical plans: map-only job DAGs with optimizer-chosen parameters.
//!
//! A [`PhysPlan`] is a list of [`PhysJob`]s with dependencies. Three
//! operators cover the paper's execution model:
//!
//! * [`PhysJob::Mul`] — the split matrix multiply. The output tile grid is
//!   covered by `ri × rj`-tile bands and the shared dimension by
//!   `rk`-tile bands; one task per `(I, J, K)` band triple. With more than
//!   one `K` band, tasks write *partial* matrices that a follow-up
//!   [`PhysJob::AddPartials`] sums — trading parallelism against an extra
//!   materialisation, exactly the knob the paper's optimizer turns.
//! * [`PhysJob::Fused`] — an element-wise expression tree (add/sub/⊙/⊘,
//!   scaling, unary maps) over any number of inputs, evaluated tile-by-tile
//!   in a single job. This is what MapReduce-based baselines cannot do
//!   (multi-input maps, no shuffle, no per-op job).
//! * [`PhysJob::AddPartials`] — sums co-indexed tiles of several matrices.
//!
//! Inputs are [`MatRef`]s: a matrix name plus a `transposed` flag, so
//! transposition is free at read time (the transpose-pushdown rewrite
//! guarantees transposes only ever sit on stored matrices).

use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::MatrixMeta;
use serde::{Deserialize, Serialize};

use crate::expr::{NodeInfo, UnaryOp};

/// Reference to a stored matrix, optionally read transposed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatRef {
    /// Matrix name in the tile store.
    pub name: String,
    /// Read tiles transposed: tile `(i, j)` of the reference is the
    /// transpose of stored tile `(j, i)`.
    pub transposed: bool,
}

impl MatRef {
    /// Plain reference.
    pub fn plain(name: impl Into<String>) -> Self {
        MatRef {
            name: name.into(),
            transposed: false,
        }
    }
}

/// Split parameters of a multiply job, in tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MulSplit {
    /// Output-row tiles handled per task.
    pub ri: usize,
    /// Output-column tiles handled per task.
    pub rj: usize,
    /// Shared-dimension tiles handled per task.
    pub rk: usize,
}

impl MulSplit {
    /// The `1×1×1` split (one output tile, one shared band per task).
    pub fn unit() -> Self {
        MulSplit {
            ri: 1,
            rj: 1,
            rk: 1,
        }
    }

    /// Number of tasks for given tile-grid extents.
    pub(crate) fn task_count(&self, mt: usize, kt: usize, nt: usize) -> usize {
        mt.div_ceil(self.ri) * nt.div_ceil(self.rj) * kt.div_ceil(self.rk)
    }

    /// Number of shared-dimension bands (1 ⇒ no Add job needed).
    pub fn k_bands(&self, kt: usize) -> usize {
        kt.div_ceil(self.rk)
    }
}

/// Statistics the estimator needs about one matrix operand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperandStats {
    /// Shape/tiling as read (i.e. already transposed if the ref is).
    pub meta: MatrixMeta,
    /// Estimated density.
    pub density: f64,
    /// Whether reads come from a generator (no DFS I/O).
    pub generated: bool,
}

impl From<&NodeInfo> for OperandStats {
    /// The statistics lowering gives a job that reads the node's value.
    fn from(info: &NodeInfo) -> Self {
        OperandStats {
            meta: info.meta,
            density: info.density,
            generated: info.generated,
        }
    }
}

/// Per-tile evaluation tree of a fused job.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedExpr {
    /// Reads input number `idx` (into the job's `inputs` list).
    Read(usize),
    /// Element-wise combination of two subtrees.
    Elem(ElemOp, Box<FusedExpr>, Box<FusedExpr>),
    /// Scalar multiple of a subtree.
    Scale(Box<FusedExpr>, f64),
    /// Unary map of a subtree.
    Unary(UnaryOp, Box<FusedExpr>),
}

impl FusedExpr {
    /// Number of operator applications (per-tile kernel invocations).
    pub(crate) fn op_count(&self) -> usize {
        match self {
            FusedExpr::Read(_) => 0,
            FusedExpr::Elem(_, a, b) => 1 + a.op_count() + b.op_count(),
            FusedExpr::Scale(a, _) | FusedExpr::Unary(_, a) => 1 + a.op_count(),
        }
    }
}

/// One physical job.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysJob {
    /// Split matrix multiply. When `split.k_bands(kt) > 1` the job writes
    /// partial matrices named `{out}__p{K}` instead of `out`; the planner
    /// always pairs it with an [`PhysJob::AddPartials`] in that case.
    Mul {
        /// Left operand.
        a: MatRef,
        /// Left operand statistics (as read).
        a_stats: OperandStats,
        /// Right operand.
        b: MatRef,
        /// Right operand statistics (as read).
        b_stats: OperandStats,
        /// Output (or partial-prefix) name.
        out: String,
        /// Output statistics.
        out_stats: OperandStats,
        /// Split parameters.
        split: MulSplit,
    },
    /// Sums co-indexed tiles of `partials` into `out`.
    AddPartials {
        /// Partial matrix names (all with `out`'s meta).
        partials: Vec<String>,
        /// Output name.
        out: String,
        /// Output statistics.
        out_stats: OperandStats,
        /// Output tiles handled per task.
        tiles_per_task: usize,
    },
    /// Evaluates a fused element-wise tree tile-by-tile.
    Fused {
        /// Inputs read by `expr`'s `Read` leaves.
        inputs: Vec<(MatRef, OperandStats)>,
        /// The per-tile evaluation tree.
        expr: FusedExpr,
        /// Output name.
        out: String,
        /// Output statistics.
        out_stats: OperandStats,
        /// Output tiles handled per task.
        tiles_per_task: usize,
    },
}

impl PhysJob {
    /// Operator label for calibration grouping.
    pub fn op_label(&self) -> &'static str {
        match self {
            PhysJob::Mul { .. } => "mul",
            PhysJob::AddPartials { .. } => "add",
            PhysJob::Fused { .. } => "fused",
        }
    }

    /// Output matrix name(s) this job materialises.
    pub fn output_names(&self) -> Vec<String> {
        match self {
            PhysJob::Mul {
                out,
                split,
                a_stats,
                ..
            } => {
                let kt = a_stats.meta.grid().tile_cols;
                let bands = split.k_bands(kt);
                if bands > 1 {
                    (0..bands).map(|k| partial_name(out, k)).collect()
                } else {
                    vec![out.clone()]
                }
            }
            PhysJob::AddPartials { out, .. } | PhysJob::Fused { out, .. } => vec![out.clone()],
        }
    }

    /// Task indices (in [`instantiate`](crate::lower::instantiate) order)
    /// that write tile `(ti, tj)` of output matrix `matrix`. Empty when
    /// `matrix` is not one of this job's outputs. This is the lineage map a
    /// recovery driver uses to re-execute only the tasks whose output tiles
    /// were lost.
    pub(crate) fn tasks_for_tile(&self, matrix: &str, ti: usize, tj: usize) -> Vec<usize> {
        match self {
            PhysJob::Mul {
                a_stats,
                b_stats,
                out,
                split,
                ..
            } => {
                let ga = a_stats.meta.grid();
                let gb = b_stats.meta.grid();
                let (mt, kt, nt) = (ga.tile_rows, ga.tile_cols, gb.tile_cols);
                let bands = split.k_bands(kt);
                // Which k-band wrote this matrix? The whole output for an
                // unsplit k; partial `{out}__p{k}` selects band k.
                let bk = if bands > 1 {
                    let Some(k) = (0..bands).find(|&k| partial_name(out, k) == matrix) else {
                        return Vec::new();
                    };
                    k
                } else {
                    if matrix != out {
                        return Vec::new();
                    }
                    0
                };
                if ti >= mt || tj >= nt {
                    return Vec::new();
                }
                let (bi, bj) = (ti / split.ri, tj / split.rj);
                let nbj = nt.div_ceil(split.rj);
                vec![(bi * nbj + bj) * bands + bk]
            }
            PhysJob::AddPartials {
                out,
                out_stats,
                tiles_per_task,
                ..
            }
            | PhysJob::Fused {
                out,
                out_stats,
                tiles_per_task,
                ..
            } => {
                if matrix != out {
                    return Vec::new();
                }
                match out_stats.meta.grid().iter().position(|c| c == (ti, tj)) {
                    Some(pos) => vec![pos / (*tiles_per_task).max(1)],
                    None => Vec::new(),
                }
            }
        }
    }

    /// Number of tasks this job will spawn.
    pub fn task_count(&self) -> usize {
        match self {
            PhysJob::Mul {
                a_stats,
                b_stats,
                split,
                ..
            } => {
                let ga = a_stats.meta.grid();
                let gb = b_stats.meta.grid();
                split.task_count(ga.tile_rows, ga.tile_cols, gb.tile_cols)
            }
            PhysJob::AddPartials {
                out_stats,
                tiles_per_task,
                ..
            }
            | PhysJob::Fused {
                out_stats,
                tiles_per_task,
                ..
            } => out_stats
                .meta
                .tile_count()
                .div_ceil((*tiles_per_task).max(1)),
        }
    }
}

/// Name of the `k`-th partial matrix of a split multiply.
pub fn partial_name(out: &str, k: usize) -> String {
    format!("{out}__p{k}")
}

/// A physical plan: jobs plus dependency lists (indices into `jobs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysPlan {
    /// The jobs in topological order.
    pub jobs: Vec<PhysJob>,
    /// `deps[i]` lists jobs that must complete before job `i`.
    pub deps: Vec<Vec<usize>>,
}

impl PhysPlan {
    /// Appends a job, returning its index.
    pub(crate) fn push(&mut self, job: PhysJob, deps: Vec<usize>) -> usize {
        self.jobs.push(job);
        self.deps.push(deps);
        self.jobs.len() - 1
    }

    /// Total tasks across all jobs.
    pub fn total_tasks(&self) -> usize {
        self.jobs.iter().map(PhysJob::task_count).sum()
    }

    /// Index of the job that materialises `matrix`, if any. Partial
    /// matrices (`{out}__p{k}`) resolve to their multiply job.
    pub(crate) fn producer_of(&self, matrix: &str) -> Option<usize> {
        self.jobs
            .iter()
            .position(|j| j.output_names().iter().any(|n| n == matrix))
    }

    /// Topological levels: jobs grouped by the longest dependency chain
    /// below them. Jobs in the same level can run concurrently; the plan
    /// estimator sums level makespans.
    pub(crate) fn levels(&self) -> Vec<Vec<usize>> {
        let mut level_of = vec![0usize; self.jobs.len()];
        for (i, deps) in self.deps.iter().enumerate() {
            level_of[i] = deps.iter().map(|&d| level_of[d] + 1).max().unwrap_or(0);
        }
        let max_level = level_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        let mut levels = vec![Vec::new(); max_level];
        for (i, &l) in level_of.iter().enumerate() {
            levels[l].push(i);
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rows: usize, cols: usize, tile: usize, density: f64) -> OperandStats {
        OperandStats {
            meta: MatrixMeta::new(rows, cols, tile),
            density,
            generated: false,
        }
    }

    fn mul_job(split: MulSplit) -> PhysJob {
        PhysJob::Mul {
            a: MatRef::plain("A"),
            a_stats: stats(40, 60, 10, 1.0), // 4 × 6 tiles
            b: MatRef::plain("B"),
            b_stats: stats(60, 20, 10, 1.0), // 6 × 2 tiles
            out: "C".into(),
            out_stats: stats(40, 20, 10, 1.0),
            split,
        }
    }

    #[test]
    fn split_task_count() {
        let s = MulSplit {
            ri: 2,
            rj: 1,
            rk: 3,
        };
        assert_eq!(s.task_count(4, 6, 2), 2 * 2 * 2);
        assert_eq!(s.k_bands(6), 2);
        assert_eq!(MulSplit::unit().task_count(4, 6, 2), 48);
    }

    #[test]
    fn split_ragged_bands() {
        let s = MulSplit {
            ri: 3,
            rj: 3,
            rk: 4,
        };
        // Factored as rows × cols × k-bands to mirror the split geometry.
        #[allow(clippy::identity_op)]
        {
            assert_eq!(s.task_count(4, 6, 2), 2 * 1 * 2);
        }
        assert_eq!(s.k_bands(6), 2);
    }

    #[test]
    fn mul_outputs_partials_when_k_split() {
        let whole = mul_job(MulSplit {
            ri: 1,
            rj: 1,
            rk: 6,
        });
        assert_eq!(whole.output_names(), vec!["C"]);
        let split = mul_job(MulSplit {
            ri: 1,
            rj: 1,
            rk: 2,
        });
        assert_eq!(split.output_names(), vec!["C__p0", "C__p1", "C__p2"]);
    }

    #[test]
    fn job_task_counts() {
        assert_eq!(mul_job(MulSplit::unit()).task_count(), 4 * 2 * 6);
        let add = PhysJob::AddPartials {
            partials: vec!["C__p0".into(), "C__p1".into()],
            out: "C".into(),
            out_stats: stats(40, 20, 10, 1.0),
            tiles_per_task: 3,
        };
        assert_eq!(add.task_count(), 3); // 8 tiles / 3 per task
    }

    #[test]
    fn fused_expr_counts() {
        // (a + b) * 2, then squared: reads 2, ops 3
        let e = FusedExpr::Unary(
            UnaryOp::Square,
            Box::new(FusedExpr::Scale(
                Box::new(FusedExpr::Elem(
                    ElemOp::Add,
                    Box::new(FusedExpr::Read(0)),
                    Box::new(FusedExpr::Read(1)),
                )),
                2.0,
            )),
        );
        assert_eq!(e.op_count(), 3);
    }

    #[test]
    fn plan_levels() {
        let mut plan = PhysPlan::default();
        let j0 = plan.push(mul_job(MulSplit::unit()), vec![]);
        let j1 = plan.push(mul_job(MulSplit::unit()), vec![]);
        let j2 = plan.push(
            PhysJob::AddPartials {
                partials: vec!["x".into()],
                out: "y".into(),
                out_stats: stats(40, 20, 10, 1.0),
                tiles_per_task: 1,
            },
            vec![j0, j1],
        );
        let levels = plan.levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], vec![j0, j1]);
        assert_eq!(levels[1], vec![j2]);
        assert!(plan.total_tasks() > 0);
    }

    #[test]
    fn tasks_for_tile_mul_banded() {
        // Output grid 4 × 2 tiles; ri=2, rj=1 → 2 × 2 bands; kt=6, rk=3 →
        // 2 k-bands. Task order: (bi, bj, bk) nested loops.
        let job = mul_job(MulSplit {
            ri: 2,
            rj: 1,
            rk: 3,
        });
        assert_eq!(job.tasks_for_tile("C__p0", 3, 1), vec![6]);
        assert_eq!(job.tasks_for_tile("C__p1", 3, 1), vec![7]);
        assert!(
            job.tasks_for_tile("C", 3, 1).is_empty(),
            "k-split writes partials"
        );
        assert!(
            job.tasks_for_tile("C__p0", 9, 0).is_empty(),
            "tile out of grid"
        );

        let whole = mul_job(MulSplit {
            ri: 1,
            rj: 1,
            rk: 6,
        });
        assert_eq!(whole.tasks_for_tile("C", 2, 1), vec![5]);
        assert!(whole.tasks_for_tile("C__p0", 0, 0).is_empty());
    }

    #[test]
    fn tasks_for_tile_chunked() {
        let add = PhysJob::AddPartials {
            partials: vec!["C__p0".into(), "C__p1".into()],
            out: "C".into(),
            out_stats: stats(40, 20, 10, 1.0), // 4 × 2 grid, 8 tiles
            tiles_per_task: 3,
        };
        assert_eq!(add.tasks_for_tile("C", 0, 0), vec![0]);
        assert_eq!(add.tasks_for_tile("C", 2, 1), vec![1]); // position 5 / 3
        assert_eq!(add.tasks_for_tile("C", 3, 1), vec![2]); // position 7 / 3
        assert!(add.tasks_for_tile("X", 0, 0).is_empty());
    }

    #[test]
    fn lineage_accessors() {
        let mut plan = PhysPlan::default();
        plan.push(
            mul_job(MulSplit {
                ri: 1,
                rj: 1,
                rk: 2,
            }),
            vec![],
        );
        assert_eq!(plan.producer_of("C__p1"), Some(0));
        assert_eq!(
            plan.producer_of("C"),
            None,
            "k-split mul makes partials only"
        );
        assert_eq!(plan.producer_of("A"), None);
    }

    #[test]
    fn matref_builders() {
        assert!(!MatRef::plain("A").transposed);
        assert_eq!(partial_name("C", 2), "C__p2");
    }

    #[test]
    fn op_labels() {
        assert_eq!(mul_job(MulSplit::unit()).op_label(), "mul");
    }
}
