//! Lowering: logical programs → physical plans → executable job DAGs.
//!
//! Lowering happens in two phases:
//!
//! 1. [`build_plan`] decides *what jobs exist*: every `Mul` node becomes a
//!    split-multiply job (plus an Add job when the shared dimension is
//!    split); maximal element-wise/scale/unary regions become single fused
//!    jobs; transposes become transposed tile reads. Split parameters come
//!    from a [`SplitChooser`] — the naive [`UnitSplits`] or the optimizer's
//!    cost-based chooser.
//! 2. [`instantiate`] turns the plan into a [`JobDag`] of real task
//!    closures over a tile store: tasks read tiles, run kernels, charge
//!    their receipts and write results. The same closures serve real and
//!    phantom execution.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cumulon_cluster::error::Result as ClusterResult;
use cumulon_cluster::{Job, JobDag, Task, TaskCtx, TileRef};
use cumulon_dfs::TileStore;
use cumulon_matrix::ops as mops;
use cumulon_matrix::{PackScratch, Tile, TileData};

use crate::error::{CoreError, Result};
use crate::expr::{ExprId, ExprNode, InputDesc, NodeInfo, Program};
use crate::physical::{partial_name, FusedExpr, MatRef, MulSplit, OperandStats, PhysJob, PhysPlan};

/// Chooses physical parameters for jobs.
pub trait SplitChooser {
    /// Split for a multiply with the given operand/output statistics.
    fn choose_mul(&self, a: &OperandStats, b: &OperandStats, out: &OperandStats) -> MulSplit;

    /// Output tiles per task for fused/add jobs.
    fn tiles_per_task(&self, out: &OperandStats) -> usize {
        let _ = out;
        1
    }
}

/// The naive chooser: one output tile and one shared band per task.
pub struct UnitSplits;

impl SplitChooser for UnitSplits {
    fn choose_mul(&self, a: &OperandStats, _b: &OperandStats, _out: &OperandStats) -> MulSplit {
        // One task per output tile, whole shared dimension per task: no
        // Add job, maximal task count.
        MulSplit {
            ri: 1,
            rj: 1,
            rk: a.meta.grid().tile_cols.max(1),
        }
    }
}

/// A fixed split for every multiply (used by parameter sweeps).
pub struct FixedSplit(pub MulSplit, pub usize);

impl SplitChooser for FixedSplit {
    fn choose_mul(&self, _a: &OperandStats, _b: &OperandStats, _out: &OperandStats) -> MulSplit {
        self.0
    }

    fn tiles_per_task(&self, _out: &OperandStats) -> usize {
        self.1
    }
}

/// Planning options beyond the split chooser.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Fuse maximal element-wise regions into single jobs (Cumulon's
    /// behaviour). `false` materialises every element-wise operator as its
    /// own job — the MapReduce-style ablation.
    pub fuse: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { fuse: true }
    }
}

/// Builds the physical plan for a program.
///
/// `temp_prefix` namespaces intermediate matrices (give each iteration of
/// an iterative workload a distinct prefix).
pub fn build_plan(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
    chooser: &dyn SplitChooser,
    temp_prefix: &str,
) -> Result<PhysPlan> {
    build_plan_with(
        program,
        inputs,
        chooser,
        temp_prefix,
        PlanOptions::default(),
    )
}

/// [`build_plan`] with explicit [`PlanOptions`].
pub fn build_plan_with(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
    chooser: &dyn SplitChooser,
    temp_prefix: &str,
    options: PlanOptions,
) -> Result<PhysPlan> {
    let info = program.infer(inputs)?;
    build_plan_inferred(program, &info, chooser, temp_prefix, options)
}

/// [`build_plan_with`] on node information the caller already holds from
/// [`Program::infer`]: inference depends on the program and its inputs
/// only, so a deployment search infers once and plans once per candidate.
pub(crate) fn build_plan_inferred(
    program: &Program,
    info: &[NodeInfo],
    chooser: &dyn SplitChooser,
    temp_prefix: &str,
    options: PlanOptions,
) -> Result<PhysPlan> {
    if info.len() != program.nodes.len() {
        return Err(CoreError::Invariant(format!(
            "node info for {} nodes given for a program of {}",
            info.len(),
            program.nodes.len()
        )));
    }
    let mut b = PlanBuilder {
        program,
        info,
        chooser,
        temp_prefix,
        options,
        plan: PhysPlan::default(),
        materialized: HashMap::new(),
        producer: HashMap::new(),
    };
    for (name, root) in &program.outputs {
        b.ensure_output(*root, name)?;
    }
    Ok(b.plan)
}

struct PlanBuilder<'a> {
    program: &'a Program,
    info: &'a [NodeInfo],
    chooser: &'a dyn SplitChooser,
    temp_prefix: &'a str,
    options: PlanOptions,
    plan: PhysPlan,
    /// Expression → the matrix ref its value is available as.
    materialized: HashMap<ExprId, (MatRef, OperandStats)>,
    /// Matrix name → plan job index that produces it.
    producer: HashMap<String, usize>,
}

impl<'a> PlanBuilder<'a> {
    fn stats(&self, id: ExprId) -> OperandStats {
        OperandStats::from(&self.info[id])
    }

    fn deps_of(&self, names: &[&str]) -> Vec<usize> {
        let mut deps: Vec<usize> = names
            .iter()
            .filter_map(|n| self.producer.get(*n).copied())
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Materialises `id` under the forced output name.
    fn ensure_output(&mut self, id: ExprId, name: &str) -> Result<()> {
        // If the value is already stored under another name (or is a plain
        // input / transposed input), emit an identity fused job to copy it.
        if let Some((mat, stats)) = self.materialized.get(&id).cloned() {
            self.emit_fused_copy(mat, stats, name)?;
            return Ok(());
        }
        match self.program.node(id)? {
            ExprNode::Input(_) | ExprNode::Transpose(_) => {
                let (mat, stats) = self.operand(id)?;
                self.emit_fused_copy(mat, stats, name)?;
            }
            ExprNode::Mul(_, _) => {
                self.emit_mul(id, Some(name))?;
            }
            ExprNode::Elem(_, _, _) | ExprNode::Scale(_, _) | ExprNode::Unary(_, _) => {
                self.emit_fused(id, Some(name))?;
            }
        }
        Ok(())
    }

    /// Returns a ref for `id`, materialising it if needed.
    fn operand(&mut self, id: ExprId) -> Result<(MatRef, OperandStats)> {
        if let Some(done) = self.materialized.get(&id) {
            return Ok(done.clone());
        }
        let result = match self.program.node(id)? {
            ExprNode::Input(name) => (MatRef::plain(name.clone()), self.stats(id)),
            // Transposition is free at read time over *any* materialised
            // value: materialise the child, flip the transposed flag.
            ExprNode::Transpose(a) => {
                let a = *a;
                let (child, _) = self.operand(a)?;
                (
                    MatRef {
                        name: child.name,
                        transposed: !child.transposed,
                    },
                    self.stats(id),
                )
            }
            ExprNode::Mul(_, _) => self.emit_mul(id, None)?,
            ExprNode::Elem(_, _, _) | ExprNode::Scale(_, _) | ExprNode::Unary(_, _) => {
                self.emit_fused(id, None)?
            }
        };
        self.materialized.insert(id, result.clone());
        Ok(result)
    }

    /// Emits the multiply (and Add, if k-split) jobs for a `Mul` node.
    fn emit_mul(&mut self, id: ExprId, forced: Option<&str>) -> Result<(MatRef, OperandStats)> {
        let ExprNode::Mul(a, b) = self.program.node(id)?.clone() else {
            return Err(CoreError::Invariant("emit_mul on non-mul".into()));
        };
        let (aref, astats) = self.operand(a)?;
        let (bref, bstats) = self.operand(b)?;
        let out_stats = self.stats(id);
        let out_name = forced
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}_m{id}", self.temp_prefix));
        let split = self.chooser.choose_mul(&astats, &bstats, &out_stats);
        let kt = astats.meta.grid().tile_cols;
        let bands = split.k_bands(kt);
        let deps = self.deps_of(&[&aref.name, &bref.name]);
        let mul_idx = self.plan.push(
            PhysJob::Mul {
                a: aref,
                a_stats: astats,
                b: bref,
                b_stats: bstats,
                out: out_name.clone(),
                out_stats,
                split,
            },
            deps,
        );
        let final_idx = if bands > 1 {
            let partials: Vec<String> = (0..bands).map(|k| partial_name(&out_name, k)).collect();
            self.plan.push(
                PhysJob::AddPartials {
                    partials,
                    out: out_name.clone(),
                    out_stats,
                    tiles_per_task: self.chooser.tiles_per_task(&out_stats),
                },
                vec![mul_idx],
            )
        } else {
            mul_idx
        };
        self.producer.insert(out_name.clone(), final_idx);
        let result = (MatRef::plain(out_name), out_stats);
        self.materialized.insert(id, result.clone());
        Ok(result)
    }

    /// Emits a fused job materialising the element-wise region rooted at
    /// `id`.
    fn emit_fused(&mut self, id: ExprId, forced: Option<&str>) -> Result<(MatRef, OperandStats)> {
        let mut inputs: Vec<(MatRef, OperandStats)> = Vec::new();
        let expr = self.fused_tree(id, true, &mut inputs)?;
        let out_stats = self.stats(id);
        let out_name = forced
            .map(str::to_string)
            .unwrap_or_else(|| format!("{}_f{id}", self.temp_prefix));
        let names: Vec<&str> = inputs.iter().map(|(m, _)| m.name.as_str()).collect();
        let deps = self.deps_of(&names);
        let idx = self.plan.push(
            PhysJob::Fused {
                inputs,
                expr,
                out: out_name.clone(),
                out_stats,
                tiles_per_task: self.chooser.tiles_per_task(&out_stats),
            },
            deps,
        );
        self.producer.insert(out_name.clone(), idx);
        let result = (MatRef::plain(out_name), out_stats);
        self.materialized.insert(id, result.clone());
        Ok(result)
    }

    /// Builds the per-tile tree of a fused region; leaves outside the
    /// region are materialised as operands. With fusion disabled
    /// (`options.fuse == false`) only the root operator stays in-tree and
    /// every child materialises as its own job.
    fn fused_tree(
        &mut self,
        id: ExprId,
        root: bool,
        inputs: &mut Vec<(MatRef, OperandStats)>,
    ) -> Result<FusedExpr> {
        let in_region = root || self.options.fuse;
        match self.program.node(id)?.clone() {
            ExprNode::Elem(op, a, b) if in_region => {
                let ta = self.fused_tree(a, false, inputs)?;
                let tb = self.fused_tree(b, false, inputs)?;
                Ok(FusedExpr::Elem(op, Box::new(ta), Box::new(tb)))
            }
            ExprNode::Scale(a, f) if in_region => Ok(FusedExpr::Scale(
                Box::new(self.fused_tree(a, false, inputs)?),
                f,
            )),
            ExprNode::Unary(op, a) if in_region => Ok(FusedExpr::Unary(
                op,
                Box::new(self.fused_tree(a, false, inputs)?),
            )),
            // Region boundary: Input / Transpose / Mul — or any operator
            // when fusion is disabled.
            _ => {
                let (mat, stats) = self.operand(id)?;
                let idx = inputs
                    .iter()
                    .position(|(m, _)| *m == mat)
                    .unwrap_or_else(|| {
                        inputs.push((mat, stats));
                        inputs.len() - 1
                    });
                Ok(FusedExpr::Read(idx))
            }
        }
    }

    fn emit_fused_copy(&mut self, mat: MatRef, stats: OperandStats, out_name: &str) -> Result<()> {
        let deps = self.deps_of(&[&mat.name]);
        let idx = self.plan.push(
            PhysJob::Fused {
                inputs: vec![(mat, stats)],
                expr: FusedExpr::Read(0),
                out: out_name.to_string(),
                out_stats: stats,
                tiles_per_task: self.chooser.tiles_per_task(&stats),
            },
            deps,
        );
        self.producer.insert(out_name.to_string(), idx);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Phase 2: instantiation
// ---------------------------------------------------------------------------

/// Registers the plan's output matrices in the store and builds the
/// executable [`JobDag`].
pub fn instantiate(plan: &PhysPlan, store: &TileStore) -> Result<JobDag> {
    // Register every matrix the plan produces.
    for job in &plan.jobs {
        let meta = match job {
            PhysJob::Mul { out_stats, .. }
            | PhysJob::AddPartials { out_stats, .. }
            | PhysJob::Fused { out_stats, .. } => out_stats.meta,
        };
        for name in job.output_names() {
            store.register(&name, meta)?;
        }
    }
    let mut dag = JobDag::new();
    for (idx, job) in plan.jobs.iter().enumerate() {
        let tasks = match job {
            PhysJob::Mul {
                a,
                a_stats,
                b,
                b_stats,
                out,
                split,
                ..
            } => mul_tasks(a, a_stats, b, b_stats, out, *split),
            PhysJob::AddPartials {
                partials,
                out,
                out_stats,
                tiles_per_task,
            } => add_tasks(partials, out, out_stats, *tiles_per_task),
            PhysJob::Fused {
                inputs,
                expr,
                out,
                out_stats,
                tiles_per_task,
            } => fused_tasks(inputs, expr, out, out_stats, *tiles_per_task),
        };
        dag.push(
            Job::new(format!("{}#{idx}", job.op_label()), job.op_label(), tasks),
            plan.deps[idx].clone(),
        );
    }
    Ok(dag)
}

/// The stored tile `read_ref(_, mat, i, j)` resolves to: `(j, i)` of the
/// underlying matrix when the reference is transposed. `name` is the job's
/// shared copy of `mat.name`.
fn stored_coord(mat: &MatRef, name: &Arc<str>, i: usize, j: usize) -> TileRef {
    if mat.transposed {
        (Arc::clone(name), j, i)
    } else {
        (Arc::clone(name), i, j)
    }
}

/// Reads tile `(i, j)` of a (possibly transposed) matrix reference.
fn read_ref(ctx: &mut TaskCtx, mat: &MatRef, i: usize, j: usize) -> ClusterResult<Arc<Tile>> {
    if mat.transposed {
        let t = ctx.read_tile(&mat.name, j, i)?;
        ctx.charge(mops::transpose_work(&t));
        Ok(Arc::new(t.transpose()))
    } else {
        ctx.read_tile(&mat.name, i, j)
    }
}

/// One tile of a mul band's left operand, in the form its multiplies
/// consume it.
enum LeftTile {
    /// Multiplied as read (or as materialised from a transposed read).
    Plain(Arc<Tile>),
    /// A dense tile of `A'` kept as stored: each multiply packs it
    /// transposed instead of the band building a transposed copy.
    Stored(Arc<Tile>),
}

impl LeftTile {
    /// Reads tile `(i, k)` of the left operand `a`. A transposed read is
    /// charged [`mops::transpose_work`] either way — it is the model's price
    /// of reading `A'`, not host work — but only sparse and phantom tiles
    /// are transposed here; dense ones stay as stored.
    fn read(ctx: &mut TaskCtx, a: &MatRef, i: usize, k: usize) -> ClusterResult<LeftTile> {
        if !a.transposed {
            return ctx.read_tile(&a.name, i, k).map(LeftTile::Plain);
        }
        let t = ctx.read_tile(&a.name, k, i)?;
        ctx.charge(mops::transpose_work(&t));
        Ok(match t.payload() {
            TileData::Dense(_) => LeftTile::Stored(t),
            _ => LeftTile::Plain(Arc::new(t.transpose())),
        })
    }

    /// Charges and computes this tile times `b`; the product and the
    /// charge are bitwise what multiplying the materialised operand gives.
    fn mul(&self, ctx: &mut TaskCtx, b: &Tile, scratch: &mut PackScratch) -> ClusterResult<Tile> {
        Ok(match self {
            LeftTile::Plain(a) => {
                ctx.charge(mops::mul_work(a, b));
                a.mul_in(b, scratch)?
            }
            LeftTile::Stored(at) => {
                ctx.charge(mops::mul_work_transposed(at, b));
                at.mul_transposed_in(b, scratch)?
            }
        })
    }
}

fn mul_tasks(
    a: &MatRef,
    a_stats: &OperandStats,
    b: &MatRef,
    b_stats: &OperandStats,
    out: &str,
    split: MulSplit,
) -> Vec<Task> {
    let ga = a_stats.meta.grid();
    let gb = b_stats.meta.grid();
    let (mt, kt, nt) = (ga.tile_rows, ga.tile_cols, gb.tile_cols);
    let bands = split.k_bands(kt);
    // One copy of each name and operand per job: the tasks' hints, read
    // sets and closures share them.
    let a_name: Arc<str> = Arc::from(a.name.as_str());
    let b_name: Arc<str> = if b.name == a.name {
        Arc::clone(&a_name)
    } else {
        Arc::from(b.name.as_str())
    };
    // Band `k` writes its own partial when the shared dimension is split.
    let outs: Vec<Arc<str>> = (0..bands)
        .map(|k| match bands {
            1 => Arc::from(out),
            _ => Arc::from(partial_name(out, k)),
        })
        .collect();
    let (a, b) = (Arc::new(a.clone()), Arc::new(b.clone()));
    let mut tasks = Vec::with_capacity(split.task_count(mt, kt, nt));
    for bi in 0..mt.div_ceil(split.ri) {
        for bj in 0..nt.div_ceil(split.rj) {
            for (bk, out_name) in outs.iter().enumerate() {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                let out_name = Arc::clone(out_name);
                let i_range = band(bi, split.ri, mt);
                let j_range = band(bj, split.rj, nt);
                let k_range = band(bk, split.rk, kt);
                // Locality follows the first A tile of the band (A is read
                // ri·rk tiles vs B's rk·rj; close enough for placement).
                let (hint, hint_i, hint_j) =
                    stored_coord(&a, &a_name, i_range.start, k_range.start);
                // The exact stored tiles the closure below will demand,
                // in read order, so the spill-aware scheduler can
                // prefetch the band instead of guessing from the hint.
                let mut read_set: Vec<TileRef> =
                    Vec::with_capacity(k_range.len() * (i_range.len() + j_range.len()));
                for i in i_range.clone() {
                    for k in k_range.clone() {
                        read_set.push(stored_coord(&a, &a_name, i, k));
                    }
                }
                for k in k_range.clone() {
                    for j in j_range.clone() {
                        read_set.push(stored_coord(&b, &b_name, k, j));
                    }
                }
                let task = Task::new(move |ctx| {
                    // Read the A band once (ri × rk tiles).
                    let mut a_tiles: Vec<Vec<LeftTile>> = Vec::with_capacity(i_range.len());
                    for i in i_range.clone() {
                        let mut row = Vec::with_capacity(k_range.len());
                        for k in k_range.clone() {
                            row.push(LeftTile::read(ctx, &a, i, k)?);
                        }
                        a_tiles.push(row);
                    }
                    // Read the B band once (rk × rj tiles).
                    let mut b_tiles: Vec<Vec<Arc<Tile>>> = Vec::with_capacity(k_range.len());
                    for k in k_range.clone() {
                        let mut row = Vec::with_capacity(j_range.len());
                        for j in j_range.clone() {
                            row.push(read_ref(ctx, &b, k, j)?);
                        }
                        b_tiles.push(row);
                    }
                    // Multiply-accumulate each output tile of the band,
                    // every multiply packing into the task's one scratch.
                    let mut scratch = PackScratch::default();
                    for (ii, i) in i_range.clone().enumerate() {
                        for (jj, j) in j_range.clone().enumerate() {
                            let mut acc: Option<Tile> = None;
                            for kk in 0..k_range.len() {
                                let p = a_tiles[ii][kk].mul(ctx, &b_tiles[kk][jj], &mut scratch)?;
                                match &mut acc {
                                    None => acc = Some(p),
                                    Some(c) => {
                                        ctx.charge(mops::add_work(c, &p));
                                        c.add_assign(&p)?;
                                    }
                                }
                            }
                            let acc = acc.expect("k band is never empty");
                            ctx.write_tile(&out_name, i, j, acc)?;
                        }
                    }
                    Ok(())
                });
                tasks.push(
                    task.with_locality(hint, hint_i, hint_j)
                        .with_read_set(read_set),
                );
            }
        }
    }
    tasks
}

fn band(idx: usize, width: usize, total: usize) -> std::ops::Range<usize> {
    let start = idx * width;
    start..((idx + 1) * width).min(total)
}

fn add_tasks(
    partials: &[String],
    out: &str,
    out_stats: &OperandStats,
    tiles_per_task: usize,
) -> Vec<Task> {
    let coords: Arc<[(usize, usize)]> = out_stats.meta.grid().iter().collect();
    // One copy of each name per job, shared by every task.
    let partials: Arc<[Arc<str>]> = partials.iter().map(|p| Arc::from(p.as_str())).collect();
    let out: Arc<str> = Arc::from(out);
    let per_task = tiles_per_task.max(1);
    let mut tasks = Vec::with_capacity(coords.len().div_ceil(per_task));
    for start in (0..coords.len()).step_by(per_task) {
        let chunk = start..(start + per_task).min(coords.len());
        let mut read_set: Vec<TileRef> = Vec::with_capacity(chunk.len() * partials.len());
        for &(i, j) in &coords[chunk.clone()] {
            read_set.extend(partials.iter().map(|p| (Arc::clone(p), i, j)));
        }
        let (hint, (hint_i, hint_j)) = (Arc::clone(&partials[0]), coords[start]);
        let (coords, partials, out) =
            (Arc::clone(&coords), Arc::clone(&partials), Arc::clone(&out));
        tasks.push(
            Task::new(move |ctx| {
                for &(i, j) in &coords[chunk.clone()] {
                    let mut acc: Option<Tile> = None;
                    for p in partials.iter() {
                        let t = ctx.read_tile(p, i, j)?;
                        match &mut acc {
                            None => acc = Some(Arc::unwrap_or_clone(t)),
                            Some(c) => {
                                ctx.charge(mops::add_work(c, &t));
                                c.add_assign(&t)?;
                            }
                        }
                    }
                    let acc = acc.expect("at least one partial");
                    ctx.write_tile(&out, i, j, acc)?;
                }
                Ok(())
            })
            .with_locality(hint, hint_i, hint_j)
            .with_read_set(read_set),
        );
    }
    tasks
}

fn eval_fused(
    ctx: &mut TaskCtx,
    expr: &FusedExpr,
    inputs: &[(MatRef, OperandStats)],
    i: usize,
    j: usize,
) -> ClusterResult<Tile> {
    match expr {
        FusedExpr::Read(idx) => Ok(Arc::unwrap_or_clone(read_ref(ctx, &inputs[*idx].0, i, j)?)),
        FusedExpr::Elem(op, a, b) => {
            let ta = eval_fused(ctx, a, inputs, i, j)?;
            let tb = eval_fused(ctx, b, inputs, i, j)?;
            ctx.charge(mops::elementwise_work(&ta, &tb));
            Ok(ta.elementwise(&tb, *op)?)
        }
        FusedExpr::Scale(a, f) => {
            let mut t = eval_fused(ctx, a, inputs, i, j)?;
            ctx.charge(mops::map_work(&t));
            t.scale(*f);
            Ok(t)
        }
        FusedExpr::Unary(op, a) => {
            let t = eval_fused(ctx, a, inputs, i, j)?;
            ctx.charge(mops::map_work(&t));
            let op = *op;
            Ok(t.map(move |x| op.apply(x)))
        }
    }
}

fn fused_tasks(
    inputs: &[(MatRef, OperandStats)],
    expr: &FusedExpr,
    out: &str,
    out_stats: &OperandStats,
    tiles_per_task: usize,
) -> Vec<Task> {
    let coords: Arc<[(usize, usize)]> = out_stats.meta.grid().iter().collect();
    // One copy of each name, of the inputs and of the expression per job,
    // shared by every task.
    let names: Vec<Arc<str>> = inputs
        .iter()
        .map(|(m, _)| Arc::from(m.name.as_str()))
        .collect();
    let inputs: Arc<[(MatRef, OperandStats)]> = Arc::from(inputs);
    let expr = Arc::new(expr.clone());
    let out: Arc<str> = Arc::from(out);
    let per_task = tiles_per_task.max(1);
    let mut tasks = Vec::with_capacity(coords.len().div_ceil(per_task));
    for start in (0..coords.len()).step_by(per_task) {
        let chunk = start..(start + per_task).min(coords.len());
        let mut read_set: Vec<TileRef> = Vec::with_capacity(chunk.len() * inputs.len());
        for &(i, j) in &coords[chunk.clone()] {
            read_set.extend(
                inputs
                    .iter()
                    .zip(&names)
                    .map(|((m, _), name)| stored_coord(m, name, i, j)),
            );
        }
        let (hint, hint_i, hint_j) =
            stored_coord(&inputs[0].0, &names[0], coords[start].0, coords[start].1);
        let (coords, inputs, expr, out) = (
            Arc::clone(&coords),
            Arc::clone(&inputs),
            Arc::clone(&expr),
            Arc::clone(&out),
        );
        tasks.push(
            Task::new(move |ctx| {
                for &(i, j) in &coords[chunk.clone()] {
                    let t = eval_fused(ctx, &expr, &inputs, i, j)?;
                    ctx.write_tile(&out, i, j, t)?;
                }
                Ok(())
            })
            .with_locality(hint, hint_i, hint_j)
            .with_read_set(read_set),
        );
    }
    tasks
}

/// Convenience: build + instantiate in one call with unit splits.
pub fn lower(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
    store: &TileStore,
    temp_prefix: &str,
) -> Result<JobDag> {
    let plan = build_plan(program, inputs, &UnitSplits, temp_prefix)?;
    instantiate(&plan, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ProgramBuilder, UnaryOp};
    use cumulon_cluster::{Cluster, ClusterSpec, ExecMode};
    use cumulon_matrix::gen::Generator;
    use cumulon_matrix::tile::ElemOp;
    use cumulon_matrix::{LocalMatrix, MatrixMeta};

    fn cluster() -> Cluster {
        Cluster::provision(ClusterSpec::named("m1.large", 3, 2).unwrap()).unwrap()
    }

    fn load(c: &Cluster, name: &str, rows: usize, cols: usize, seed: u64) -> LocalMatrix {
        let meta = MatrixMeta::new(rows, cols, 4);
        let m = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform {
                seed,
                lo: -1.0,
                hi: 1.0,
            },
        );
        c.store().put_local(name, &m).unwrap();
        m
    }

    fn descs(c: &Cluster, names: &[&str]) -> BTreeMap<String, InputDesc> {
        names
            .iter()
            .map(|n| {
                let meta = c.store().lookup(n).unwrap().meta;
                (n.to_string(), InputDesc::dense(meta))
            })
            .collect()
    }

    fn run(
        c: &Cluster,
        program: &Program,
        inputs: &BTreeMap<String, InputDesc>,
        chooser: &dyn SplitChooser,
    ) -> cumulon_cluster::RunReport {
        let plan = build_plan(program, inputs, chooser, "tmp").unwrap();
        let dag = instantiate(&plan, c.store()).unwrap();
        c.run(&dag, ExecMode::Real).unwrap()
    }

    #[test]
    fn simple_multiply_unit_split() {
        let c = cluster();
        let a = load(&c, "A", 10, 8, 1);
        let b = load(&c, "B", 8, 6, 2);
        let mut pb = ProgramBuilder::new();
        let (ia, ib) = (pb.input("A"), pb.input("B"));
        let m = pb.mul(ia, ib);
        pb.output("C", m);
        let program = pb.build();
        let inputs = descs(&c, &["A", "B"]);
        run(&c, &program, &inputs, &UnitSplits);
        let got = c.store().get_local("C").unwrap();
        assert!(got.max_abs_diff(&a.matmul(&b).unwrap()).unwrap() < 1e-9);
    }

    #[test]
    fn k_split_produces_add_job_and_same_result() {
        let c = cluster();
        let a = load(&c, "A", 8, 12, 3);
        let b = load(&c, "B", 12, 8, 4);
        let mut pb = ProgramBuilder::new();
        let (ia, ib) = (pb.input("A"), pb.input("B"));
        let m = pb.mul(ia, ib);
        pb.output("C", m);
        let program = pb.build();
        let inputs = descs(&c, &["A", "B"]);
        // Kt = 3 tiles; rk = 1 → 3 bands → Mul + Add jobs.
        let plan = build_plan(&program, &inputs, &FixedSplit(MulSplit::unit(), 2), "tmp").unwrap();
        assert_eq!(plan.jobs.len(), 2);
        assert!(matches!(plan.jobs[1], PhysJob::AddPartials { .. }));
        let dag = instantiate(&plan, c.store()).unwrap();
        c.run(&dag, ExecMode::Real).unwrap();
        let got = c.store().get_local("C").unwrap();
        assert!(got.max_abs_diff(&a.matmul(&b).unwrap()).unwrap() < 1e-9);
    }

    #[test]
    fn banded_split_fewer_tasks_same_result() {
        let c = cluster();
        let a = load(&c, "A", 12, 12, 5);
        let b = load(&c, "B", 12, 12, 6);
        let mut pb = ProgramBuilder::new();
        let (ia, ib) = (pb.input("A"), pb.input("B"));
        let m = pb.mul(ia, ib);
        pb.output("C", m);
        let program = pb.build();
        let inputs = descs(&c, &["A", "B"]);
        let split = MulSplit {
            ri: 2,
            rj: 3,
            rk: 2,
        };
        let plan = build_plan(&program, &inputs, &FixedSplit(split, 1), "tmp").unwrap();
        // 3 tile-rows/2 → 2;  3 tile-cols/3 → 1;  3 k/2 → 2 bands.
        #[allow(clippy::identity_op)]
        {
            assert_eq!(plan.jobs[0].task_count(), 2 * 1 * 2);
        }
        let dag = instantiate(&plan, c.store()).unwrap();
        c.run(&dag, ExecMode::Real).unwrap();
        let got = c.store().get_local("C").unwrap();
        assert!(got.max_abs_diff(&a.matmul(&b).unwrap()).unwrap() < 1e-9);
    }

    #[test]
    fn transposed_reads_gram_matrix() {
        let c = cluster();
        let a = load(&c, "A", 10, 6, 7);
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("A");
        let at = pb.transpose(ia);
        let g = pb.mul(at, ia); // AᵀA
        pb.output("G", g);
        let program = pb.build();
        let inputs = descs(&c, &["A"]);
        run(&c, &program, &inputs, &UnitSplits);
        let got = c.store().get_local("G").unwrap();
        let expect = a.transpose().matmul(&a).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
    }

    #[test]
    fn fused_elementwise_single_job() {
        let c = cluster();
        let a = load(&c, "A", 9, 7, 8);
        let b = load(&c, "B", 9, 7, 9);
        let mut pb = ProgramBuilder::new();
        let (ia, ib) = (pb.input("A"), pb.input("B"));
        // |2(A + B)| ⊙ A — one fused job.
        let s = pb.add(ia, ib);
        let sc = pb.scale(s, 2.0);
        let ab = pb.unary(UnaryOp::Abs, sc);
        let m = pb.elem_mul(ab, ia);
        pb.output("O", m);
        let program = pb.build();
        let inputs = descs(&c, &["A", "B"]);
        let plan = build_plan(&program, &inputs, &UnitSplits, "tmp").unwrap();
        assert_eq!(plan.jobs.len(), 1, "whole element-wise region fuses");
        let dag = instantiate(&plan, c.store()).unwrap();
        c.run(&dag, ExecMode::Real).unwrap();
        let got = c.store().get_local("O").unwrap();
        let mut expect = a.elementwise(&b, ElemOp::Add).unwrap();
        expect.scale(2.0);
        let expect = expect.map(f64::abs).elementwise(&a, ElemOp::Mul).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
    }

    #[test]
    fn mul_inside_elementwise_materializes() {
        let c = cluster();
        let a = load(&c, "A", 8, 8, 10);
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("A");
        let sq = pb.mul(ia, ia); // A²
        let diff = pb.sub(sq, ia); // A² − A : fused over materialised A²
        pb.output("D", diff);
        let program = pb.build();
        let inputs = descs(&c, &["A"]);
        let plan = build_plan(&program, &inputs, &UnitSplits, "tmp").unwrap();
        assert_eq!(plan.jobs.len(), 2);
        assert!(matches!(plan.jobs[0], PhysJob::Mul { .. }));
        assert!(matches!(plan.jobs[1], PhysJob::Fused { .. }));
        assert_eq!(plan.deps[1], vec![0], "fused job depends on the multiply");
        let dag = instantiate(&plan, c.store()).unwrap();
        c.run(&dag, ExecMode::Real).unwrap();
        let got = c.store().get_local("D").unwrap();
        let expect = a.matmul(&a).unwrap().elementwise(&a, ElemOp::Sub).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
    }

    #[test]
    fn output_aliasing_input_copies() {
        let c = cluster();
        let a = load(&c, "A", 4, 4, 11);
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("A");
        pb.output("ACopy", ia);
        let program = pb.build();
        let inputs = descs(&c, &["A"]);
        run(&c, &program, &inputs, &UnitSplits);
        let got = c.store().get_local("ACopy").unwrap();
        assert_eq!(got.max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn two_outputs_sharing_intermediate() {
        let c = cluster();
        let a = load(&c, "A", 6, 6, 12);
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("A");
        let sq = pb.mul(ia, ia);
        pb.output("SQ", sq);
        let cube = pb.mul(sq, ia);
        pb.output("CUBE", cube);
        let program = pb.build();
        let inputs = descs(&c, &["A"]);
        run(&c, &program, &inputs, &UnitSplits);
        let sq_m = a.matmul(&a).unwrap();
        assert!(
            c.store()
                .get_local("SQ")
                .unwrap()
                .max_abs_diff(&sq_m)
                .unwrap()
                < 1e-9
        );
        let cube_m = sq_m.matmul(&a).unwrap();
        assert!(
            c.store()
                .get_local("CUBE")
                .unwrap()
                .max_abs_diff(&cube_m)
                .unwrap()
                < 1e-9
        );
    }

    #[test]
    fn phantom_mode_end_to_end() {
        let c = cluster();
        let meta = MatrixMeta::new(4000, 4000, 1000);
        c.store()
            .register_generated("BIG", meta, Generator::DenseGaussian { seed: 1 })
            .unwrap();
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("BIG");
        let m = pb.mul(ia, ia);
        pb.output("BIG2", m);
        let program = pb.build();
        let mut inputs = BTreeMap::new();
        inputs.insert("BIG".into(), InputDesc::dense(meta));
        let plan = build_plan(&program, &inputs, &UnitSplits, "tmp").unwrap();
        let dag = instantiate(&plan, c.store()).unwrap();
        let report = c.run(&dag, ExecMode::Simulated).unwrap();
        // 1.28e11 flops over six m1.large slots: tens of simulated seconds.
        assert!(report.makespan_s > 10.0, "makespan {}", report.makespan_s);
        let job = &report.jobs[0];
        assert!(job.receipt.work.flops > 1e11);
        assert!(job.receipt.write.bytes > 100_000_000);
    }

    #[test]
    fn fused_chain_on_transposed_input() {
        let c = cluster();
        let a = load(&c, "A", 6, 9, 13);
        let mut pb = ProgramBuilder::new();
        let ia = pb.input("A");
        let t = pb.transpose(ia);
        let sc = pb.scale(t, -1.0);
        pb.output("NT", sc);
        let program = pb.build();
        let inputs = descs(&c, &["A"]);
        run(&c, &program, &inputs, &UnitSplits);
        let got = c.store().get_local("NT").unwrap();
        let mut expect = a.transpose();
        expect.scale(-1.0);
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-12);
    }
}

#[cfg(test)]
mod fusion_ablation_tests {
    use super::*;
    use crate::expr::{ProgramBuilder, UnaryOp};
    use cumulon_cluster::{Cluster, ClusterSpec, ExecMode};
    use cumulon_matrix::gen::Generator;
    use cumulon_matrix::{LocalMatrix, MatrixMeta};

    #[test]
    fn no_fusion_materialises_every_operator() {
        let meta = MatrixMeta::new(8, 8, 4);
        let mut pb = ProgramBuilder::new();
        let a = pb.input("A");
        let b = pb.input("B");
        // abs(2(A + B)) ⊙ A: four element-wise operators.
        let s = pb.add(a, b);
        let sc = pb.scale(s, 2.0);
        let ab = pb.unary(UnaryOp::Abs, sc);
        let m = pb.elem_mul(ab, a);
        pb.output("O", m);
        let program = pb.build();
        let mut inputs = BTreeMap::new();
        inputs.insert("A".to_string(), InputDesc::dense(meta));
        inputs.insert("B".to_string(), InputDesc::dense(meta));

        let fused = build_plan(&program, &inputs, &UnitSplits, "t").unwrap();
        assert_eq!(fused.jobs.len(), 1);
        let unfused = build_plan_with(
            &program,
            &inputs,
            &UnitSplits,
            "u",
            PlanOptions { fuse: false },
        )
        .unwrap();
        assert_eq!(unfused.jobs.len(), 4, "one job per element-wise operator");

        // Same numbers either way.
        let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
        let am = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 1 });
        let bm = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 2 });
        cluster.store().put_local("A", &am).unwrap();
        cluster.store().put_local("B", &bm).unwrap();

        let dag_f = instantiate(&fused, cluster.store()).unwrap();
        let rf = cluster.run(&dag_f, ExecMode::Real).unwrap();
        let out_fused = cluster.store().get_local("O").unwrap();
        cluster.store().drop_matrix("O").unwrap();
        let dag_u = instantiate(&unfused, cluster.store()).unwrap();
        let ru = cluster.run(&dag_u, ExecMode::Real).unwrap();
        let out_unfused = cluster.store().get_local("O").unwrap();
        assert!(out_fused.max_abs_diff(&out_unfused).unwrap() < 1e-12);
        // And the unfused plan pays for it in time (extra materialisation
        // + extra task startups).
        assert!(
            ru.makespan_s > rf.makespan_s,
            "{} !> {}",
            ru.makespan_s,
            rf.makespan_s
        );
    }
}
