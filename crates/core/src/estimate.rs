//! Analytic cost estimation: physical plans → predicted time and cost.
//!
//! The estimator never looks inside the cluster simulator. It combines:
//!
//! * **analytic per-task features** derived from the physical plan (tile
//!   counts, densities, split parameters, replication, a locality
//!   assumption);
//! * a **fitted task-time model** ([`crate::calibrate::CostModel`]) —
//!   coefficients regressed from benchmark runs;
//! * a **wave model** of job completion: `⌈tasks / slots⌉` waves of the
//!   mean task time plus a straggler tail correction
//!   `σ·√(2·ln(min(tasks, slots)))` from extreme-value theory;
//! * **plan composition** over topological levels, with jobs in a level
//!   sharing the slot pool;
//! * **hour-quantized billing** for the dollar figure.

use cumulon_cluster::billing::{cluster_cost, BillingPolicy};
use cumulon_cluster::instances::InstanceType;
use cumulon_cluster::job::GEN_FLOPS_PER_CELL;
use serde::{Deserialize, Serialize};

use crate::calibrate::{CostModel, OpCoefficients};
use crate::error::Result;
use crate::physical::{MulSplit, OperandStats, PhysJob, PhysPlan};

/// The deployment a plan is being estimated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterView {
    /// Instance type.
    pub instance: InstanceType,
    /// Number of nodes.
    pub nodes: u32,
    /// Task slots per node.
    pub slots: u32,
    /// DFS replication factor.
    pub replication: u32,
}

impl ClusterView {
    /// Total slots in the cluster.
    pub fn total_slots(&self) -> u32 {
        self.nodes * self.slots
    }

    /// Probability an arbitrary stored tile has a replica on a given node.
    pub(crate) fn base_locality(&self) -> f64 {
        (self.replication as f64 / self.nodes as f64).min(1.0)
    }

    /// Locality assumed for a task's *hinted* input: the scheduler prefers
    /// node-local tasks, so hinted reads are local far more often than
    /// chance. The boost is an empirical constant validated by E5.
    pub(crate) fn hinted_locality(&self) -> f64 {
        (self.base_locality() + 0.6).min(1.0)
    }
}

/// Analytic per-task resource features, mirroring
/// [`cumulon_cluster::TaskReceipt`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskFeatures {
    /// Kernel flops.
    pub flops: f64,
    /// Bytes read from node-local replicas.
    pub local_read: f64,
    /// Bytes read over the network.
    pub remote_read: f64,
    /// Bytes written to the local replica.
    pub local_write: f64,
    /// Bytes written to remote replicas.
    pub remote_write: f64,
    /// Peak resident memory, MB.
    pub mem_mb: f64,
    /// DFS file operations (tile reads + writes; generated reads are free).
    pub io_ops: f64,
    /// Out-of-core traffic: bytes re-read from the local-disk spill tier
    /// when the working set exceeds the memory budget (zero when tiles
    /// stay resident). Priced by the disk-tier coefficient `c₇`.
    pub spill_bytes: f64,
}

/// Bytes one tile of a matrix occupies, on average, given its stats.
fn avg_tile_bytes(s: &OperandStats) -> f64 {
    s.meta.stored_bytes_at_density(s.density) as f64 / s.meta.tile_count() as f64
}

/// Average megabytes per tile of an operand at its density.
pub(crate) fn tile_mb(s: &OperandStats) -> f64 {
    avg_tile_bytes(s) / 1e6
}

/// Splits `bytes` of reads into (local, remote) under locality `rho`.
fn split_read(bytes: f64, rho: f64) -> (f64, f64) {
    (bytes * rho, bytes * (1.0 - rho))
}

/// Read features of `tiles` tiles of an operand: generated operands cost
/// generation flops instead of I/O.
fn read_cost(s: &OperandStats, tiles: f64, rho: f64) -> TaskFeatures {
    let tile_cells = (s.meta.rows as f64 * s.meta.cols as f64) / s.meta.tile_count() as f64;
    if s.generated {
        return TaskFeatures {
            flops: GEN_FLOPS_PER_CELL * tile_cells * tiles,
            mem_mb: avg_tile_bytes(s) * tiles / 1e6,
            ..Default::default()
        };
    }
    let bytes = avg_tile_bytes(s) * tiles;
    let (local, remote) = split_read(bytes, rho);
    TaskFeatures {
        local_read: local,
        remote_read: remote,
        mem_mb: bytes / 1e6,
        io_ops: tiles,
        ..Default::default()
    }
}

/// Write features of `tiles` output tiles: one local replica plus
/// `replication − 1` remote copies (capped by the node count).
fn write_cost(s: &OperandStats, tiles: f64, view: &ClusterView) -> TaskFeatures {
    let bytes = avg_tile_bytes(s) * tiles;
    let replicas = view.replication.min(view.nodes).max(1) as f64;
    TaskFeatures {
        local_write: bytes,
        remote_write: bytes * (replicas - 1.0),
        mem_mb: bytes / 1e6,
        io_ops: tiles,
        ..Default::default()
    }
}

fn add_features(a: TaskFeatures, b: TaskFeatures) -> TaskFeatures {
    TaskFeatures {
        flops: a.flops + b.flops,
        local_read: a.local_read + b.local_read,
        remote_read: a.remote_read + b.remote_read,
        local_write: a.local_write + b.local_write,
        remote_write: a.remote_write + b.remote_write,
        mem_mb: a.mem_mb + b.mem_mb,
        io_ops: a.io_ops + b.io_ops,
        spill_bytes: a.spill_bytes + b.spill_bytes,
    }
}

/// Average dimensions of one tile of an operand (tiles may be rectangular
/// when a matrix dimension is narrower than the tile size, and ragged at
/// the trailing edges).
fn avg_tile_dims(s: &OperandStats) -> (f64, f64) {
    let g = s.meta.grid();
    (
        s.meta.rows as f64 / g.tile_rows as f64,
        s.meta.cols as f64 / g.tile_cols as f64,
    )
}

/// Average cells per tile.
fn avg_tile_cells(s: &OperandStats) -> f64 {
    let (r, c) = avg_tile_dims(s);
    r * c
}

/// Estimated flops of multiplying one tile of `a` by one tile of `b` at
/// the operands' densities (mirrors [`cumulon_matrix::ops::mul_work`]).
fn tile_mul_flops(a: &OperandStats, b: &OperandStats) -> f64 {
    let (ar, ac) = avg_tile_dims(a);
    let (_, bc) = avg_tile_dims(b);
    2.0 * ar * ac * bc * (a.density * b.density).clamp(0.0, 1.0)
}

/// Tile-grid extents `(mt, kt, nt)` of the product `a × b`.
pub(crate) fn mul_grid(a: &OperandStats, b: &OperandStats) -> (usize, usize, usize) {
    let ga = a.meta.grid();
    let gb = b.meta.grid();
    (ga.tile_rows, ga.tile_cols, gb.tile_cols)
}

/// Flops of the tile multiplies of the whole product `a × b`, whatever its
/// split: [`mul_features`] charges a task `tile_mul_flops` per
/// `(i, k, j)` tile triple of its band, and the bands of any split
/// partition the grid's `mt · kt · nt` triples. Accumulating partial tiles
/// and generating operands add flops on top of these.
pub(crate) fn mul_flops(a: &OperandStats, b: &OperandStats) -> f64 {
    let (mt, kt, nt) = mul_grid(a, b);
    tile_mul_flops(a, b) * (mt * kt * nt) as f64
}

/// Per-task features and task count for one physical job.
pub fn job_features(job: &PhysJob, view: &ClusterView) -> (usize, TaskFeatures) {
    match job {
        PhysJob::Mul {
            a_stats,
            b_stats,
            out_stats,
            split,
            ..
        } => mul_features(a_stats, b_stats, out_stats, *split, view),
        PhysJob::AddPartials {
            partials,
            out_stats,
            tiles_per_task,
            ..
        } => add_partials_features(partials.len(), out_stats, *tiles_per_task, view),
        PhysJob::Fused {
            inputs,
            expr,
            out_stats,
            tiles_per_task,
            ..
        } => {
            let n_tasks = out_stats
                .meta
                .tile_count()
                .div_ceil((*tiles_per_task).max(1));
            let tiles = (*tiles_per_task).max(1) as f64;
            let mut f = TaskFeatures::default();
            for (idx, (_, s)) in inputs.iter().enumerate() {
                let rho = if idx == 0 {
                    view.hinted_locality()
                } else {
                    view.base_locality()
                };
                f = add_features(f, read_cost(s, tiles, rho));
            }
            f = add_features(f, write_cost(out_stats, tiles, view));
            f.flops += expr.op_count() as f64 * tiles * avg_tile_cells(out_stats);
            (n_tasks, f)
        }
    }
}

/// Per-task features and task count of an [`PhysJob::AddPartials`] summing
/// `n_partials` co-indexed matrices of `out`'s shape.
pub(crate) fn add_partials_features(
    n_partials: usize,
    out: &OperandStats,
    tiles_per_task: usize,
    view: &ClusterView,
) -> (usize, TaskFeatures) {
    let n_tasks = out.meta.tile_count().div_ceil(tiles_per_task.max(1));
    let tiles = tiles_per_task.max(1) as f64;
    let reads = read_cost(out, tiles * n_partials as f64, view.hinted_locality());
    let writes = write_cost(out, tiles, view);
    let flops = TaskFeatures {
        flops: tiles * n_partials as f64 * out.density * avg_tile_cells(out),
        ..Default::default()
    };
    (n_tasks, add_features(add_features(reads, writes), flops))
}

/// Per-task features and task count of a [`PhysJob::Mul`] with the given
/// operand statistics and split.
pub(crate) fn mul_features(
    a: &OperandStats,
    b: &OperandStats,
    out: &OperandStats,
    split: MulSplit,
    view: &ClusterView,
) -> (usize, TaskFeatures) {
    let (mt, kt, nt) = mul_grid(a, b);
    let n_tasks = split.task_count(mt, kt, nt);
    // Effective band extents (last bands may be ragged; use the average).
    let ri = mt as f64 / mt.div_ceil(split.ri) as f64;
    let rj = nt as f64 / nt.div_ceil(split.rj) as f64;
    let rk = kt as f64 / kt.div_ceil(split.rk) as f64;

    let a_reads = read_cost(a, ri * rk, view.hinted_locality());
    let b_reads = read_cost(b, rk * rj, view.base_locality());
    let writes = write_cost(out, ri * rj, view);
    let mul_flops = TaskFeatures {
        flops: tile_mul_flops(a, b) * ri * rj * rk
            // accumulating rk partial tiles into each output tile
            + (rk - 1.0).max(0.0) * ri * rj * out.density * avg_tile_cells(out),
        ..Default::default()
    };
    let f = add_features(
        add_features(a_reads, b_reads),
        add_features(writes, mul_flops),
    );
    (n_tasks, f)
}

/// The flop rate a fitted model *implies* for pure compute on one
/// uncontended slot, in GFLOP/s: the marginal seconds per flop is read
/// off as `predict(10⁹ flops) − predict(0)` so the startup intercept
/// cancels. Lets callers compare the cost model's CPU coefficient
/// directly against measured kernel rates (see
/// [`crate::calibrate::KernelProfile`]) — if the two disagree, plan
/// estimates are systematically skewed.
pub fn model_implied_gflops(coeffs: &OpCoefficients, instance: &InstanceType) -> f64 {
    let flops_f = TaskFeatures {
        flops: 1e9,
        ..Default::default()
    };
    let zero_f = TaskFeatures::default();
    let per_gigaflop = coeffs.predict(instance, 1, &flops_f) - coeffs.predict(instance, 1, &zero_f);
    if per_gigaflop <= 0.0 {
        return f64::INFINITY;
    }
    1.0 / per_gigaflop
}

/// Wave-model job completion time given a mean task time, the task count
/// and the fitted straggler sigma (closed-form approximation).
pub fn job_time_s(mean_task_s: f64, n_tasks: usize, total_slots: u32, sigma: f64) -> f64 {
    if n_tasks == 0 {
        return 0.0;
    }
    let s = total_slots.max(1) as usize;
    let waves = n_tasks.div_ceil(s) as f64;
    let tail_k = n_tasks.min(s) as f64;
    let tail = sigma * (2.0 * tail_k.max(1.0).ln()).sqrt();
    mean_task_s * (waves + tail)
}

/// Monte-Carlo job completion time: simulates greedy list scheduling of
/// `n_tasks` lognormal task durations over `total_slots` slots, averaged
/// over `trials` — the paper's *simulation* technique for job-time
/// prediction, as opposed to the closed-form wave model above. More
/// accurate when waves are ragged or sigma is large; costs O(trials · n).
pub fn job_time_mc(
    mean_task_s: f64,
    n_tasks: usize,
    total_slots: u32,
    sigma: f64,
    seed: u64,
    trials: usize,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    if n_tasks == 0 {
        return 0.0;
    }
    let s = (total_slots.max(1) as usize).min(n_tasks);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    // Greedy list scheduling: each task goes to the earliest-free slot.
    let mut free_at = vec![0.0f64; s];
    for _ in 0..trials.max(1) {
        free_at.iter_mut().for_each(|t| *t = 0.0);
        for _ in 0..n_tasks {
            let duration = if sigma == 0.0 {
                mean_task_s
            } else {
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random_range(0.0f64..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean_task_s * (sigma * z - sigma * sigma / 2.0).exp()
            };
            // Earliest-free slot.
            let (slot, _) = free_at
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("at least one slot");
            free_at[slot] += duration;
        }
        total += free_at.iter().copied().fold(0.0, f64::max);
    }
    total / trials.max(1) as f64
}

/// Expected-failure model for deployment planning: how often nodes die
/// and tasks flake, so the optimizer can price the *expected* rework of
/// lineage recovery into a plan instead of assuming a perfect cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Mean time between failures of a single node, seconds. Cluster-wide
    /// failure rate scales with the node count.
    pub node_mtbf_s: f64,
    /// Independent probability that any task attempt fails and is retried.
    pub task_failure_prob: f64,
}

impl FailureModel {
    /// A perfectly reliable cluster (no overhead).
    pub(crate) fn none() -> Self {
        FailureModel {
            node_mtbf_s: f64::INFINITY,
            task_failure_prob: 0.0,
        }
    }

    /// Expected node failures over a run of `makespan_s` on `nodes` nodes.
    pub(crate) fn expected_node_failures(&self, nodes: u32, makespan_s: f64) -> f64 {
        if !self.node_mtbf_s.is_finite() || self.node_mtbf_s <= 0.0 {
            return 0.0;
        }
        nodes as f64 * makespan_s / self.node_mtbf_s
    }

    /// Expected makespan under failures, from the failure-free estimate.
    ///
    /// Two terms:
    /// * task retries inflate every task by the expected attempt count
    ///   `1 / (1 − p)`;
    /// * each node death forces rework. At replication 1 a death loses
    ///   `1/nodes` of the stored intermediates, and the average death
    ///   lands mid-run, so the expected rework per failure is
    ///   `T / (2·nodes)` — multiplied by the expected failure count the
    ///   per-node term cancels and overhead grows with `T²/mtbf`, which
    ///   is exactly why long uncheckpointed runs are priced badly. At
    ///   replication ≥ 2 stored data survives a single death and only
    ///   in-flight work and re-replication are lost (a small fixed
    ///   fraction per failure).
    pub(crate) fn expected_makespan(&self, fail_free_s: f64, view: &ClusterView) -> f64 {
        let p = self.task_failure_prob.clamp(0.0, 0.95);
        let t = fail_free_s / (1.0 - p);
        let failures = self.expected_node_failures(view.nodes, t);
        if failures == 0.0 {
            return t;
        }
        let rework_frac = if view.replication <= 1 { 0.5 } else { 0.05 };
        t * (1.0 + failures * rework_frac / view.nodes as f64)
    }
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel::none()
    }
}

/// Spot-market revocation hazard for deployment planning: how often the
/// market reclaims a spot cluster, as a function of bid headroom over the
/// mean spot price. Exponential in the headroom — bidding exactly the
/// mean price means riding every excursion (the base rate); each unit of
/// headroom (as a fraction of the on-demand price) damps the rate by
/// `exp(-decay · headroom)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotHazard {
    /// Mean spot price as a fraction of the on-demand price (what you
    /// actually pay while running).
    pub mean_price_fraction: f64,
    /// Bulk revocations per hour when bidding exactly the mean price.
    pub base_rate_per_hour: f64,
    /// Exponential damping of the rate per unit of bid headroom.
    pub decay: f64,
    /// Seconds to reacquire capacity and resume after a revocation.
    pub restart_overhead_s: f64,
}

impl SpotHazard {
    /// A typical 2013-era spot market: spot trades around a third of
    /// on-demand, bidding at the mean gets revoked roughly once every
    /// five hours, and headroom pays off quickly.
    pub fn typical() -> Self {
        SpotHazard {
            mean_price_fraction: 0.35,
            base_rate_per_hour: 0.2,
            decay: 6.0,
            restart_overhead_s: 120.0,
        }
    }

    /// Revocations per hour for a bid at `bid_fraction` of the on-demand
    /// price. Bidding below the mean price is treated as bidding at it
    /// (the cluster would never start otherwise).
    pub(crate) fn revocation_rate(&self, bid_fraction: f64) -> f64 {
        let headroom = (bid_fraction - self.mean_price_fraction).max(0.0);
        self.base_rate_per_hour * (-self.decay * headroom).exp()
    }

    /// Expected `(makespan_s, rework_s)` of a run whose failure-free
    /// makespan is `fail_free_s`, on spot capacity at `bid_fraction` with
    /// checkpoints every `checkpoint_interval_s` costing
    /// `checkpoint_write_s` each.
    ///
    /// First-order model: the run pays every checkpoint write, and each
    /// expected revocation costs half a checkpoint interval of redone
    /// work (the average revocation lands mid-interval) plus the restart
    /// overhead. A zero or negative interval means no checkpoints — a
    /// revocation then redoes half the *whole run*.
    pub(crate) fn expected_spot_makespan(
        &self,
        fail_free_s: f64,
        bid_fraction: f64,
        checkpoint_interval_s: f64,
        checkpoint_write_s: f64,
    ) -> (f64, f64) {
        let (n_ckpts, exposure_s) = if checkpoint_interval_s > 0.0 {
            (
                (fail_free_s / checkpoint_interval_s).floor(),
                checkpoint_interval_s,
            )
        } else {
            (0.0, fail_free_s)
        };
        let base = fail_free_s + n_ckpts * checkpoint_write_s.max(0.0);
        let rate = self.revocation_rate(bid_fraction);
        let expected_revocations = rate * base / 3600.0;
        let rework_s = expected_revocations * (exposure_s / 2.0 + self.restart_overhead_s);
        (base + rework_s, rework_s)
    }
}

impl Default for SpotHazard {
    fn default() -> Self {
        SpotHazard::typical()
    }
}

/// Full plan estimate on a deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEstimate {
    /// Per-job `(mean task seconds, task count)` in plan order.
    pub jobs: Vec<(f64, usize)>,
    /// Estimated end-to-end makespan, seconds.
    pub makespan_s: f64,
    /// Estimated cost, dollars (hourly billing).
    pub cost_dollars: f64,
}

/// Estimates a physical plan on a deployment with a fitted cost model,
/// priced under hourly billing.
pub fn estimate_plan(
    plan: &PhysPlan,
    view: &ClusterView,
    model: &CostModel,
) -> Result<PlanEstimate> {
    let coeffs = model.require(view.instance.name)?;
    Ok(estimate_plan_coeffs(
        plan,
        view,
        coeffs,
        BillingPolicy::HourlyCeil,
        None,
    ))
}

/// The estimator itself, on the view's already-resolved coefficients (a
/// deployment search resolves them once per instance type, not once per
/// candidate). With a `failure` model the makespan is inflated by
/// [`FailureModel::expected_makespan`] before it is priced.
pub(crate) fn estimate_plan_coeffs(
    plan: &PhysPlan,
    view: &ClusterView,
    coeffs: &OpCoefficients,
    billing: BillingPolicy,
    failure: Option<&FailureModel>,
) -> PlanEstimate {
    let mut per_job = Vec::with_capacity(plan.jobs.len());
    for job in &plan.jobs {
        let (n_tasks, features) = job_features(job, view);
        let mean = coeffs.predict(&view.instance, view.slots, &features);
        per_job.push((mean, n_tasks));
    }
    // Compose over topological levels: jobs in a level share the slot pool.
    let total_slots = view.total_slots();
    let mut makespan = 0.0;
    for level in plan.levels() {
        let pooled_tasks: usize = level.iter().map(|&j| per_job[j].1).sum();
        let max_mean = level.iter().map(|&j| per_job[j].0).fold(0.0, f64::max);
        let weighted_mean = if pooled_tasks == 0 {
            0.0
        } else {
            level
                .iter()
                .map(|&j| per_job[j].0 * per_job[j].1 as f64)
                .sum::<f64>()
                / pooled_tasks as f64
        };
        let level_time =
            job_time_s(weighted_mean, pooled_tasks, total_slots, coeffs.sigma).max(max_mean);
        makespan += level_time;
    }
    if let Some(failure) = failure {
        makespan = failure.expected_makespan(makespan, view);
    }
    let cost = cluster_cost(billing, view.nodes, view.instance.price_per_hour, makespan);
    PlanEstimate {
        jobs: per_job,
        makespan_s: makespan,
        cost_dollars: cost,
    }
}

/// Splits one task's fitted time prediction into the trace subsystem's
/// phase categories by coefficient group of the calibration model
/// (see [`crate::calibrate::featurize`]): startup is the launch
/// intercept (`c₀`), overhead is the per-file-operation term (`c₆·ops`),
/// compute is
/// the contention-adjusted flop term (`c₁`), read is local + remote read
/// bandwidth plus the disk-tier spill term (`c₂ + c₃ + c₇` — re-reading a
/// demoted tile from the local spill segments is a read, wherever the
/// byte physically came from), write is local + remote write bandwidth
/// (`c₄ + c₅`). Comparable against a traced run's measured
/// [`cumulon_trace::PhaseBreakdown`] per span.
pub(crate) fn predicted_task_phases(
    coeffs: &crate::calibrate::OpCoefficients,
    instance: &InstanceType,
    slots: u32,
    f: &TaskFeatures,
) -> cumulon_trace::PhaseBreakdown {
    let x = crate::calibrate::featurize(instance, slots, f);
    let c = &coeffs.c;
    cumulon_trace::PhaseBreakdown {
        startup_s: c[0] * x[0],
        overhead_s: c[6] * x[6],
        compute_s: c[1] * x[1],
        read_s: c[2] * x[2] + c[3] * x[3] + c[7] * x[7],
        write_s: c[4] * x[4] + c[5] * x[5],
    }
}

/// Predicted aggregate phase breakdown of a whole plan: per-task
/// predicted phases times the task count, summed over jobs. This is the
/// analytic counterpart of [`cumulon_trace::TraceLog::phase_totals`], so
/// `log.diff_against(predict_plan_phases(..)?, est.makespan_s)` lines the
/// optimizer's model up against what a traced run actually spent.
pub(crate) fn predict_plan_phases(
    plan: &PhysPlan,
    view: &ClusterView,
    model: &CostModel,
) -> Result<cumulon_trace::PhaseBreakdown> {
    let coeffs = model.require(view.instance.name)?;
    let mut total = cumulon_trace::PhaseBreakdown::default();
    for job in &plan.jobs {
        let (n_tasks, features) = job_features(job, view);
        let p = predicted_task_phases(coeffs, &view.instance, view.slots, &features);
        let k = n_tasks as f64;
        total.add(&cumulon_trace::PhaseBreakdown {
            compute_s: p.compute_s * k,
            read_s: p.read_s * k,
            write_s: p.write_s * k,
            startup_s: p.startup_s * k,
            overhead_s: p.overhead_s * k,
        });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::OpCoefficients;
    use crate::error::CoreError;
    use crate::physical::MatRef;
    use cumulon_cluster::instances::by_name;
    use cumulon_matrix::MatrixMeta;

    fn view(nodes: u32, slots: u32) -> ClusterView {
        ClusterView {
            instance: by_name("m1.large").unwrap(),
            nodes,
            slots,
            replication: 3,
        }
    }

    fn stats(rows: usize, cols: usize, density: f64) -> OperandStats {
        OperandStats {
            meta: MatrixMeta::new(rows, cols, 10),
            density,
            generated: false,
        }
    }

    fn mul_job(split: MulSplit) -> PhysJob {
        PhysJob::Mul {
            a: MatRef::plain("A"),
            a_stats: stats(40, 60, 1.0),
            b: MatRef::plain("B"),
            b_stats: stats(60, 20, 1.0),
            out: "C".into(),
            out_stats: stats(40, 20, 1.0),
            split,
        }
    }

    #[test]
    fn implied_gflops_inverts_idealized_rate() {
        let t = by_name("m1.large").unwrap();
        let eff = 0.85;
        let coeffs = OpCoefficients::idealized(&t, 2.0, eff);
        let implied = model_implied_gflops(&coeffs, &t);
        let expect = t.gflops_per_core as f64 * eff;
        assert!(
            (implied - expect).abs() < 1e-6 * expect,
            "implied {implied} vs spec {expect}"
        );
    }

    #[test]
    fn locality_model() {
        let v = view(10, 2);
        assert!((v.base_locality() - 0.3).abs() < 1e-12);
        assert!((v.hinted_locality() - 0.9).abs() < 1e-12);
        let tiny = view(2, 2);
        assert_eq!(tiny.base_locality(), 1.0);
        assert_eq!(tiny.hinted_locality(), 1.0);
    }

    #[test]
    fn mul_feature_scaling() {
        let v = view(10, 2);
        let (n1, f1) = job_features(&mul_job(MulSplit::unit()), &v);
        let (n2, f2) = job_features(
            &mul_job(MulSplit {
                ri: 2,
                rj: 2,
                rk: 2,
            }),
            &v,
        );
        assert_eq!(n1, 4 * 2 * 6);
        // Factored as rows × k-bands × cols to mirror the split geometry.
        #[allow(clippy::identity_op)]
        {
            assert_eq!(n2, 2 * 1 * 3);
        }
        // Bigger bands per task → more flops per task.
        assert!(f2.flops > 3.0 * f1.flops);
        // Total flops across the job roughly conserved.
        let t1 = f1.flops * n1 as f64;
        let t2 = f2.flops * n2 as f64;
        assert!((t1 / t2 - 1.0).abs() < 0.3, "{t1} vs {t2}");
    }

    #[test]
    fn k_split_amortizes_b_reads() {
        // rk = Kt reads B's band once per task; rk = 1 re-reads per k.
        let v = view(10, 2);
        let (n_whole, f_whole) = job_features(
            &mul_job(MulSplit {
                ri: 1,
                rj: 1,
                rk: 6,
            }),
            &v,
        );
        let (n_split, f_split) = job_features(
            &mul_job(MulSplit {
                ri: 1,
                rj: 1,
                rk: 1,
            }),
            &v,
        );
        let whole_reads = (f_whole.local_read + f_whole.remote_read) * n_whole as f64;
        let split_reads = (f_split.local_read + f_split.remote_read) * n_split as f64;
        assert!(
            (whole_reads - split_reads).abs() < 1.0,
            "total read bytes equal"
        );
        // But the split version writes 6× the partial output volume.
        let whole_writes = f_whole.local_write * n_whole as f64;
        let split_writes = f_split.local_write * n_split as f64;
        assert!((split_writes / whole_writes - 6.0).abs() < 0.01);
    }

    #[test]
    fn generated_inputs_read_free() {
        let v = view(4, 2);
        let mut gen = stats(40, 60, 1.0);
        gen.generated = true;
        let job = PhysJob::Mul {
            a: MatRef::plain("G"),
            a_stats: gen,
            b: MatRef::plain("B"),
            b_stats: stats(60, 20, 1.0),
            out: "C".into(),
            out_stats: stats(40, 20, 1.0),
            split: MulSplit::unit(),
        };
        let (_, f) = job_features(&job, &v);
        let (_, f_stored) = job_features(&mul_job(MulSplit::unit()), &v);
        assert!(f.local_read + f.remote_read < f_stored.local_read + f_stored.remote_read);
        assert!(f.flops > f_stored.flops, "generation flops charged instead");
    }

    #[test]
    fn sparse_mul_cheaper() {
        let sparse = PhysJob::Mul {
            a: MatRef::plain("S"),
            a_stats: stats(40, 60, 0.01),
            b: MatRef::plain("B"),
            b_stats: stats(60, 20, 1.0),
            out: "C".into(),
            out_stats: stats(40, 20, 0.5),
            split: MulSplit::unit(),
        };
        let v = view(4, 2);
        let (_, fs) = job_features(&sparse, &v);
        let (_, fd) = job_features(&mul_job(MulSplit::unit()), &v);
        assert!(fs.flops < fd.flops / 20.0);
        assert!(fs.local_read + fs.remote_read < fd.local_read + fd.remote_read);
    }

    #[test]
    fn wave_model_shapes() {
        // 100 tasks of 10s on 10 slots, no noise: exactly 10 waves.
        assert_eq!(job_time_s(10.0, 100, 10, 0.0), 100.0);
        // Remainder adds a wave.
        assert_eq!(job_time_s(10.0, 101, 10, 0.0), 110.0);
        // Noise adds a tail.
        assert!(job_time_s(10.0, 100, 10, 0.1) > 100.0);
        // Empty job takes no time.
        assert_eq!(job_time_s(10.0, 0, 10, 0.1), 0.0);
        // More slots never slower.
        assert!(job_time_s(10.0, 100, 20, 0.05) <= job_time_s(10.0, 100, 10, 0.05));
    }

    #[test]
    fn estimate_plan_composes_levels() {
        let mut plan = PhysPlan::default();
        let j0 = plan.push(
            mul_job(MulSplit {
                ri: 1,
                rj: 1,
                rk: 1,
            }),
            vec![],
        );
        plan.push(
            PhysJob::AddPartials {
                partials: (0..6).map(|k| format!("C__p{k}")).collect(),
                out: "C".into(),
                out_stats: stats(40, 20, 1.0),
                tiles_per_task: 2,
            },
            vec![j0],
        );
        let v = view(4, 2);
        let model = CostModel::single(
            v.instance.name,
            OpCoefficients::idealized(&v.instance, 2.0, 0.85),
        );
        let est = estimate_plan(&plan, &v, &model).unwrap();
        assert_eq!(est.jobs.len(), 2);
        assert!(est.makespan_s > 0.0);
        assert!(est.cost_dollars > 0.0);
        // Levels serialize: makespan at least the sum of single-task times.
        assert!(est.makespan_s >= est.jobs[0].0);
    }

    #[test]
    fn predicted_phases_sum_to_the_fitted_prediction() {
        let v = view(4, 2);
        let coeffs = OpCoefficients::idealized(&v.instance, 2.0, 0.85);
        let (n_tasks, f) = job_features(&mul_job(MulSplit::unit()), &v);
        let phases = predicted_task_phases(&coeffs, &v.instance, v.slots, &f);
        let pred = coeffs.predict(&v.instance, v.slots, &f);
        assert!(
            (phases.total_s() - pred).abs() / pred < 1e-9,
            "phase groups must partition the prediction: {} vs {pred}",
            phases.total_s()
        );
        assert!(phases.compute_s > 0.0 && phases.read_s > 0.0 && phases.write_s > 0.0);

        let mut plan = PhysPlan::default();
        plan.push(mul_job(MulSplit::unit()), vec![]);
        let model = CostModel::single(v.instance.name, coeffs);
        let total = predict_plan_phases(&plan, &v, &model).unwrap();
        assert!((total.total_s() - pred * n_tasks as f64).abs() / total.total_s() < 1e-9);
        assert!(predict_plan_phases(&plan, &v, &CostModel::default()).is_err());
    }

    #[test]
    fn failure_model_overheads() {
        let v = view(10, 2);
        // No failures: identity.
        assert_eq!(FailureModel::none().expected_makespan(100.0, &v), 100.0);
        assert_eq!(FailureModel::default().expected_node_failures(10, 1e6), 0.0);
        // Task retries inflate by expected attempts.
        let flaky = FailureModel {
            node_mtbf_s: f64::INFINITY,
            task_failure_prob: 0.5,
        };
        assert!((flaky.expected_makespan(100.0, &v) - 200.0).abs() < 1e-9);
        // Node deaths: replication-1 clusters pay much more rework than
        // replicated ones, and overhead grows superlinearly with runtime.
        let dying = FailureModel {
            node_mtbf_s: 100_000.0,
            task_failure_prob: 0.0,
        };
        let mut v1 = v;
        v1.replication = 1;
        let t1 = dying.expected_makespan(1_000.0, &v1);
        let t3 = dying.expected_makespan(1_000.0, &v);
        assert!(t1 > t3, "replication 1 must pay more rework: {t1} vs {t3}");
        let short = dying.expected_makespan(1_000.0, &v1) / 1_000.0;
        let long = dying.expected_makespan(10_000.0, &v1) / 10_000.0;
        assert!(long > short, "overhead fraction grows with runtime");
    }

    #[test]
    fn spot_hazard_rates_and_makespan() {
        let h = SpotHazard::typical();
        // Headroom damps the revocation rate, monotonically.
        let at_mean = h.revocation_rate(h.mean_price_fraction);
        assert_eq!(at_mean, h.base_rate_per_hour);
        let r_low = h.revocation_rate(0.5);
        let r_high = h.revocation_rate(0.9);
        assert!(r_low < at_mean && r_high < r_low);
        // Bidding below the mean is clamped to the base rate.
        assert_eq!(h.revocation_rate(0.0), h.base_rate_per_hour);

        // Checkpoints trade write overhead for bounded rework exposure.
        let fail_free = 7_200.0;
        let (t_ckpt, rework_ckpt) = h.expected_spot_makespan(fail_free, 0.5, 600.0, 10.0);
        let (t_none, rework_none) = h.expected_spot_makespan(fail_free, 0.5, 0.0, 10.0);
        assert!(t_ckpt >= fail_free && t_none >= fail_free);
        assert!(
            rework_ckpt < rework_none,
            "checkpoints must bound rework: {rework_ckpt} vs {rework_none}"
        );
        // A safe bid reworks less than a risky one at the same interval.
        let (_, rework_risky) =
            h.expected_spot_makespan(fail_free, h.mean_price_fraction, 600.0, 10.0);
        assert!(rework_ckpt < rework_risky);
        // Zero hazard: only the checkpoint writes remain.
        let calm = SpotHazard {
            base_rate_per_hour: 0.0,
            ..h
        };
        let (t, rework) = calm.expected_spot_makespan(fail_free, 0.4, 600.0, 10.0);
        assert_eq!(rework, 0.0);
        assert!((t - (fail_free + 12.0 * 10.0)).abs() < 1e-9);
    }

    #[test]
    fn failure_aware_estimate_costs_more() {
        let mut plan = PhysPlan::default();
        plan.push(mul_job(MulSplit::unit()), vec![]);
        let v = view(4, 2);
        let model = CostModel::single(
            v.instance.name,
            OpCoefficients::idealized(&v.instance, 2.0, 0.85),
        );
        let coeffs = model.require(v.instance.name).unwrap();
        let base = estimate_plan(&plan, &v, &model).unwrap();
        let under = estimate_plan_coeffs(
            &plan,
            &v,
            coeffs,
            BillingPolicy::PerSecond,
            Some(&FailureModel {
                node_mtbf_s: 50_000.0,
                task_failure_prob: 0.1,
            }),
        );
        assert!(under.makespan_s > base.makespan_s);
        let base_ps = estimate_plan_coeffs(&plan, &v, coeffs, BillingPolicy::PerSecond, None);
        assert!(under.cost_dollars > base_ps.cost_dollars);
        // A perfect cluster adds nothing.
        let same = estimate_plan_coeffs(
            &plan,
            &v,
            coeffs,
            BillingPolicy::HourlyCeil,
            Some(&FailureModel::none()),
        );
        assert_eq!(same.makespan_s, base.makespan_s);
    }

    #[test]
    fn missing_instance_model_errors() {
        let plan = {
            let mut p = PhysPlan::default();
            p.push(mul_job(MulSplit::unit()), vec![]);
            p
        };
        let v = view(2, 1);
        let model = CostModel::default();
        assert!(matches!(
            estimate_plan(&plan, &v, &model),
            Err(CoreError::Calibration(_))
        ));
    }
}

#[cfg(test)]
mod mc_tests {
    use super::*;

    #[test]
    fn mc_matches_closed_form_without_noise() {
        // No noise: greedy scheduling of equal tasks = exact waves.
        let wave = job_time_s(10.0, 25, 8, 0.0);
        let mc = job_time_mc(10.0, 25, 8, 0.0, 1, 5);
        assert!((wave - mc).abs() < 1e-9, "wave {wave} vs mc {mc}");
    }

    #[test]
    fn mc_is_deterministic_given_seed() {
        let a = job_time_mc(5.0, 40, 6, 0.2, 99, 50);
        let b = job_time_mc(5.0, 40, 6, 0.2, 99, 50);
        assert_eq!(a, b);
        let c = job_time_mc(5.0, 40, 6, 0.2, 100, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn mc_close_to_wave_model_at_mild_noise() {
        let wave = job_time_s(10.0, 64, 16, 0.08);
        let mc = job_time_mc(10.0, 64, 16, 0.08, 7, 200);
        let rel = (wave - mc).abs() / mc;
        assert!(rel < 0.1, "wave {wave} vs mc {mc} (rel {rel})");
    }

    #[test]
    fn mc_captures_heavy_tails_better() {
        // With huge sigma the closed-form underestimates the tail; MC should
        // exceed the no-noise floor substantially.
        let floor = job_time_s(10.0, 16, 16, 0.0);
        let mc = job_time_mc(10.0, 16, 16, 1.0, 3, 300);
        assert!(
            mc > 1.3 * floor,
            "heavy tails must show: {mc} vs floor {floor}"
        );
    }

    #[test]
    fn mc_empty_job_is_free() {
        assert_eq!(job_time_mc(10.0, 0, 4, 0.5, 1, 10), 0.0);
    }

    /// The wave model's straggler tail against the order statistics it
    /// approximates: on full waves of lognormal tasks (σ 0.2–0.4), the
    /// closed form stays within 5 % of a 5 000-trial list-scheduling
    /// simulation. The tail term `σ·√(2 ln k)` is the expected maximum of
    /// `k` normal draws; with `√(1 · ln k)` instead the same cells read
    /// 10–13 % low, so this test fails on that change where the looser
    /// envelope test below does not.
    #[test]
    fn wave_tail_tracks_mc_on_full_waves() {
        for &(tasks, slots, sigma) in &[(32usize, 32u32, 0.3), (64, 64, 0.2), (32, 16, 0.4)] {
            let wave = job_time_s(10.0, tasks, slots, sigma);
            let mc = job_time_mc(10.0, tasks, slots, sigma, 0x5eed, 5_000);
            let ratio = wave / mc;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "{tasks} tasks / {slots} slots, sigma {sigma}: wave {wave:.3} vs mc {mc:.3}"
            );
        }
    }

    /// Pins the wave model to the Monte-Carlo reference across a
    /// (tasks, slots, sigma) grid. At σ = 0 the two must agree exactly
    /// (both reduce to waves × mean); otherwise the closed form must stay
    /// inside a sigma-widening relative envelope. This is the same
    /// estimate-sanity invariant `cumulon check` enforces — kept here as
    /// a unit-level regression so an estimator drift is caught next to
    /// the code that caused it.
    #[test]
    fn wave_model_stays_inside_mc_envelope_on_grid() {
        let mean = 10.0;
        let trials = 600;
        for &sigma in &[0.0, 0.1, 0.3] {
            // Exact at zero noise; 5% base + 0.75·σ slack otherwise —
            // the wave tail term is an approximation, not a bound.
            let tol_rel = if sigma == 0.0 {
                1e-12
            } else {
                0.05 + 0.75 * sigma
            };
            let mut worst = (0.0f64, 0usize, 0u32);
            for &tasks in &[1usize, 4, 7, 32, 96] {
                for &slots in &[1u32, 8, 24] {
                    let wave = job_time_s(mean, tasks, slots, sigma);
                    let mc = job_time_mc(mean, tasks, slots, sigma, 0x5eed, trials);
                    let rel = (wave - mc).abs() / mc.abs().max(wave.abs()).max(1e-12);
                    if rel > worst.0 {
                        worst = (rel, tasks, slots);
                    }
                }
            }
            assert!(
                worst.0 <= tol_rel,
                "sigma {sigma}: worst rel deviation {:.4} at {} tasks / {} slots \
                 exceeds tolerance {tol_rel:.4}",
                worst.0,
                worst.1,
                worst.2
            );
        }
    }
}
