//! Checkpointed execution of iterative workloads.
//!
//! Lineage recovery (see `cumulon_core::recovery`) can replay lost
//! intermediates *within* one iteration's program, but an iterate carried
//! across iterations — `W_7` read by iteration 7 — has no producer in
//! iteration 7's plan: lose its tiles and the run is
//! [`CoreError::Unrecoverable`]. The driver here closes that gap the way
//! the paper's Hadoop deployment does: every
//! [`CheckpointPolicy::interval`] iterations it re-persists the evolving
//! iterate at [`CheckpointPolicy::replication`] (via
//! [`cumulon_dfs::TileStore::checkpoint_matrix`]), truncating the lineage it must be
//! able to replay. On an unrecoverable loss it *rewinds*: drops every
//! iterate produced after the last checkpoint and resumes from there,
//! charging the discarded simulated time to
//! [`CheckpointedRun::wasted_makespan_s`] so recovery overhead stays
//! visible in experiment output.

use cumulon_cluster::{Cluster, ExecMode, FailurePlan, RunReport, SchedulerConfig};
use cumulon_core::error::CoreError;
use cumulon_core::{Optimizer, RecoveryConfig, Result};

use crate::Workload;

/// When and how durably to checkpoint the evolving iterate.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `interval` completed iterations
    /// (0 disables checkpointing; rewinds then restart from iteration 0).
    pub interval: usize,
    /// Replication factor of checkpointed tiles.
    pub replication: usize,
    /// Give up after this many rewinds.
    pub max_rewinds: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: 4,
            replication: 3,
            max_rewinds: 4,
        }
    }
}

/// Outcome of a checkpointed run: per-iteration reports for the
/// iterations that *stuck*, plus an honest account of what failure cost.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// One report per final iteration (discarded attempts excluded).
    pub reports: Vec<RunReport>,
    /// How many times the driver rewound to a checkpoint.
    pub rewinds: usize,
    /// Bytes the checkpoints moved, summed from each
    /// [`cumulon_dfs::TileStore::checkpoint_matrix`] receipt: every
    /// checkpointed tile's encoded length twice, once read and once
    /// rewritten (one replica's worth; replication traffic is not in it).
    pub checkpoint_bytes: u64,
    /// Simulated seconds spent on iterations later discarded by rewinds.
    pub wasted_makespan_s: f64,
}

/// Runs `iters` iterations of `workload` on `cluster` under failure
/// injection, with lineage recovery inside each iteration and
/// checkpoint/rewind across iterations. Iteration-0 inputs must already
/// be registered (see [`Workload::setup`]); they are expected to be
/// generated (re-derivable), which makes iteration 0 always a safe rewind
/// target.
///
/// `failures_for(iter)` yields the injection plan for each iteration's
/// run (simulated time restarts at 0 per iteration, so timed node deaths
/// are relative to that iteration; nodes killed earlier stay dead). Pass
/// `|_| FailurePlan::default()` for failure-free runs.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed<W: Workload>(
    workload: &W,
    optimizer: &Optimizer,
    cluster: &Cluster,
    iters: usize,
    mode: ExecMode,
    config: SchedulerConfig,
    failures_for: impl Fn(usize) -> FailurePlan,
    recovery: RecoveryConfig,
    policy: CheckpointPolicy,
) -> Result<CheckpointedRun> {
    let store = cluster.store();
    let mut run = CheckpointedRun {
        reports: Vec::with_capacity(iters),
        rewinds: 0,
        checkpoint_bytes: 0,
        wasted_makespan_s: 0.0,
    };
    // First iteration whose inputs are durable: its iterate is either
    // checkpointed or (for 0) re-derivable from generators.
    let mut durable = 0usize;
    let mut iter = 0usize;
    let mut attempt = 0usize; // distinct temp namespaces across retries
    while iter < iters {
        let program = workload.program(iter);
        let inputs = workload.inputs(iter);
        let prefix = format!("{}{iter}a{attempt}", workload.name());
        let base = failures_for(iter);
        let failures_iter = FailurePlan {
            // Decorrelate task-failure coin flips across retry attempts;
            // timed node deaths re-fire but dead nodes stay dead.
            seed: base.seed.wrapping_add((attempt * 7919) as u64),
            ..base
        };
        match optimizer.execute_on_with(
            cluster,
            &program,
            &inputs,
            &prefix,
            mode,
            config,
            &failures_iter,
            recovery,
        ) {
            Ok(report) => {
                run.reports.push(report);
                iter += 1;
                if policy.interval > 0 && iter.is_multiple_of(policy.interval) && iter < iters {
                    for (name, _) in &workload.program(iter - 1).outputs {
                        let receipt = store
                            .checkpoint_matrix(name, policy.replication)
                            .map_err(CoreError::from)?;
                        run.checkpoint_bytes += receipt.bytes;
                    }
                    durable = iter;
                }
            }
            Err(CoreError::Unrecoverable { matrix, detail }) => {
                run.rewinds += 1;
                attempt += 1;
                if run.rewinds > policy.max_rewinds {
                    return Err(CoreError::Unrecoverable {
                        matrix,
                        detail: format!("{detail} (gave up after {} rewinds)", policy.max_rewinds),
                    });
                }
                // Discard everything after the last durable iterate: the
                // iterates those discarded iterations produced...
                for j in durable..iter {
                    for (name, _) in &workload.program(j).outputs {
                        if store.contains(name) {
                            store.drop_matrix(name).map_err(CoreError::from)?;
                        }
                    }
                }
                // ...and the partial outputs of the failed attempt itself.
                for (name, _) in &program.outputs {
                    if store.contains(name) {
                        store.drop_matrix(name).map_err(CoreError::from)?;
                    }
                }
                for r in run.reports.drain(durable..) {
                    run.wasted_makespan_s += r.makespan_s;
                }
                iter = durable;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(run)
}
