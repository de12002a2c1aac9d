//! Lineage-based recovery: re-run only the work whose outputs were lost.
//!
//! The physical plan *is* the lineage graph: every
//! [`PhysJob`](crate::physical::PhysJob) records which matrices it reads
//! and which it writes, and `PhysJob::tasks_for_tile` maps a lost output
//! tile back to the task that produced it. When a run fails — a node
//! death took the only replica of some intermediate tiles, say — the
//! driver here does not restart the program. It reads the scheduler's structured
//! [`RunFailure`], resolves each lost tile to its producing job and task,
//! and re-executes a minimal sub-DAG: the not-yet-completed jobs in full,
//! plus just the affected tasks of completed producer jobs. Cascading
//! losses (a re-run task reads a tile that is *also* gone) resolve across
//! rounds: each round pushes the frontier of missing data one producer up
//! the DAG, up to [`RecoveryConfig::max_rounds`].
//!
//! Losses nothing can recompute — a source input's tiles, or data whose
//! lineage was truncated by a checkpoint — surface as
//! [`CoreError::Unrecoverable`], which iterative drivers catch to rewind
//! to their last checkpoint (see `cumulon-workloads`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cumulon_cluster::billing::{billed_hours, cluster_cost};
use cumulon_cluster::metrics::FaultStats;
use cumulon_cluster::scheduler::{FailurePlan, RunFailure};
use cumulon_cluster::Cluster;
use cumulon_cluster::{ClusterError, ExecMode, Job, JobDag, JobStats, RunReport, SchedulerConfig};

use crate::error::{CoreError, Result};
use crate::physical::PhysPlan;

/// Recovery knobs.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Maximum recovery rounds before giving up. Each round re-runs one
    /// sub-DAG; cascading losses consume one round per lineage level.
    pub max_rounds: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { max_rounds: 8 }
    }
}

/// Parses a tile path `/matrix/{name}/{ti}_{tj}`.
fn parse_tile_path(path: &str) -> Option<(String, usize, usize)> {
    let rest = path.strip_prefix("/matrix/")?;
    let (name, tile) = rest.rsplit_once('/')?;
    let (ti, tj) = tile.split_once('_')?;
    Some((name.to_string(), ti.parse().ok()?, tj.parse().ok()?))
}

/// Plan-job index encoded in a DAG job name (`"{op}#{idx}"`).
fn plan_index(job_name: &str) -> Option<usize> {
    job_name.rsplit_once('#').and_then(|(_, i)| i.parse().ok())
}

/// Runs `dag` (lowered from `plan`) on `cluster`, recovering from data
/// loss via lineage re-execution. Returns the merged report: makespan and
/// cost cover *all* rounds (recovery overhead is visible, not hidden),
/// `jobs` lists every job execution in completion order (re-executed jobs
/// appear once per round that ran them), and `faults.recovered_jobs`
/// counts job re-executions.
pub fn run_with_recovery(
    cluster: &Cluster,
    plan: &PhysPlan,
    dag: &JobDag,
    mode: ExecMode,
    config: SchedulerConfig,
    failures: &FailurePlan,
    recovery: RecoveryConfig,
) -> Result<RunReport> {
    run_with_recovery_traced(
        cluster,
        plan,
        dag,
        mode,
        config,
        failures,
        recovery,
        &cumulon_trace::Trace::disabled(),
    )
}

/// [`run_with_recovery`] recording the whole multi-round execution into
/// `trace`. Each round's spans are shifted onto the global timeline (round
/// `r` starts at the accumulated makespan of rounds `0..r`) and tagged
/// with the round number; every aborted round additionally emits a
/// [`cumulon_trace::TraceEvent::RecoveryRound`] instant at the abort
/// time. Tracing is observational: results are bitwise-identical with a
/// disabled handle.
#[allow(clippy::too_many_arguments)]
pub fn run_with_recovery_traced(
    cluster: &Cluster,
    plan: &PhysPlan,
    dag: &JobDag,
    mode: ExecMode,
    config: SchedulerConfig,
    failures: &FailurePlan,
    recovery: RecoveryConfig,
    trace: &cumulon_trace::Trace,
) -> Result<RunReport> {
    let n = plan.jobs.len();
    debug_assert_eq!(n, dag.jobs.len(), "dag must be instantiated from plan");
    // done[i]: plan job i's outputs are fully materialised.
    let mut done = vec![false; n];
    // Affected tasks of completed jobs still awaiting re-execution.
    let mut partial: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut all_jobs: Vec<JobStats> = Vec::new();
    let mut faults = FaultStats::default();
    let mut total_makespan = 0.0f64;
    let mut round = 0usize;
    let mut sub: Option<JobDag> = None; // None = run the full original DAG

    loop {
        let failures_round = FailurePlan {
            // Vary the coin-flip seed per round so a task that burned its
            // attempt budget on injected failures gets fresh draws. Node
            // failures re-fire but dead nodes are skipped by the scheduler.
            seed: failures.seed.wrapping_add(round as u64),
            ..failures.clone()
        };
        let run_dag = sub.as_ref().unwrap_or(dag);
        trace.set_round(round as u32, total_makespan);
        match cluster.try_run_with_traced(run_dag, mode, config, &failures_round, trace) {
            Ok(report) => {
                for js in &report.jobs {
                    if let Some(i) = plan_index(&js.name) {
                        done[i] = true;
                        partial.remove(&i);
                    }
                }
                all_jobs.extend(report.jobs);
                let mut round_faults = report.faults;
                if round > 0 {
                    // Everything a recovery round executes re-does work an
                    // earlier round already ran.
                    round_faults.rework_task_s = round_faults.total_task_s;
                }
                faults.merge(&round_faults);
                total_makespan += report.makespan_s;
                let spec = cluster.spec();
                let billing = cluster.billing();
                return Ok(RunReport {
                    instance: report.instance,
                    nodes: report.nodes,
                    slots: report.slots,
                    jobs: all_jobs,
                    makespan_s: total_makespan,
                    billed_hours: billed_hours(billing, total_makespan),
                    cost_dollars: cluster_cost(
                        billing,
                        spec.nodes,
                        spec.instance.price_per_hour,
                        total_makespan,
                    ),
                    faults,
                });
            }
            Err(failure) => {
                round += 1;
                // Recorded before the next `set_round`, so the handle's
                // offset is still this round's start and the instant lands
                // at the global abort time.
                trace.record_event(cumulon_trace::TraceEvent::RecoveryRound {
                    t_s: failure.makespan_s,
                    round: round as u32,
                    lost_blocks: failure.lost_blocks.len(),
                });
                total_makespan += failure.makespan_s;
                let mut round_faults = failure.faults;
                if round > 1 {
                    // `round` was just incremented; the aborted round was
                    // `round - 1`, a recovery round iff that is ≥ 1.
                    round_faults.rework_task_s = round_faults.total_task_s;
                }
                faults.merge(&round_faults);
                for js in &failure.completed_jobs {
                    if let Some(i) = plan_index(&js.name) {
                        done[i] = true;
                        partial.remove(&i);
                    }
                }
                all_jobs.extend(failure.completed_jobs.iter().cloned());
                if round > recovery.max_rounds {
                    return Err(CoreError::Exec(format!(
                        "lineage recovery gave up after {} rounds: {failure}",
                        recovery.max_rounds
                    )));
                }
                if !recoverable(&failure) {
                    return Err(CoreError::from(failure.error));
                }
                // Resolve each lost tile to its producing job's tasks.
                for path in &failure.lost_blocks {
                    let Some((name, ti, tj)) = parse_tile_path(path) else {
                        continue;
                    };
                    match plan.producer_of(&name) {
                        Some(p) => {
                            if done[p] {
                                let tasks = plan.jobs[p].tasks_for_tile(&name, ti, tj);
                                partial.entry(p).or_default().extend(tasks);
                            }
                            // Not done: the job re-runs in full anyway.
                        }
                        None => {
                            // No plan job writes this matrix: a source
                            // input (or checkpoint-truncated lineage).
                            return Err(CoreError::Unrecoverable {
                                matrix: name,
                                detail: format!(
                                    "tile ({ti}, {tj}) lost and no plan job produces it"
                                ),
                            });
                        }
                    }
                }
                sub = Some(build_sub_dag(plan, dag, &done, &partial, &mut faults));
            }
        }
    }
}

/// Whether lineage re-execution can make progress on this failure.
/// Task-level failures (including those caused by lost blocks) can; a
/// stalled or node-less cluster cannot.
fn recoverable(failure: &RunFailure) -> bool {
    matches!(
        failure.error,
        ClusterError::TaskFailed { .. } | ClusterError::BlockLost { .. }
    )
}

/// Builds the recovery sub-DAG: not-done jobs in full, plus the affected
/// tasks of done jobs, with dependencies filtered to included jobs.
fn build_sub_dag(
    plan: &PhysPlan,
    dag: &JobDag,
    done: &[bool],
    partial: &BTreeMap<usize, BTreeSet<usize>>,
    faults: &mut FaultStats,
) -> JobDag {
    let mut sub = JobDag::new();
    let mut remap: HashMap<usize, usize> = HashMap::new();
    for (i, &job_done) in done.iter().enumerate() {
        let tasks: Vec<_> = if !job_done {
            dag.jobs[i].tasks.clone()
        } else if let Some(ts) = partial.get(&i) {
            ts.iter()
                .filter(|&&t| t < dag.jobs[i].tasks.len())
                .map(|&t| dag.jobs[i].tasks[t].clone())
                .collect()
        } else {
            continue;
        };
        faults.recovered_jobs += 1;
        let deps: Vec<usize> = plan.deps[i]
            .iter()
            .filter_map(|d| remap.get(d).copied())
            .collect();
        let idx = sub.push(
            Job::new(
                dag.jobs[i].name.clone(),
                dag.jobs[i].op_label.clone(),
                tasks,
            ),
            deps,
        );
        remap.insert(i, idx);
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_path_parsing() {
        assert_eq!(
            parse_tile_path("/matrix/gnmf3_m5__p0/2_7"),
            Some(("gnmf3_m5__p0".to_string(), 2, 7))
        );
        assert_eq!(
            parse_tile_path("/matrix/W_3/0_0"),
            Some(("W_3".into(), 0, 0))
        );
        assert_eq!(parse_tile_path("/other/W/0_0"), None);
        assert_eq!(parse_tile_path("/matrix/W"), None);
        assert_eq!(parse_tile_path("/matrix/W/x_y"), None);
    }

    #[test]
    fn plan_index_parsing() {
        assert_eq!(plan_index("mul#3"), Some(3));
        assert_eq!(plan_index("fused#0"), Some(0));
        assert_eq!(plan_index("noindex"), None);
    }
}
