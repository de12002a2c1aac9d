//! Elastic mid-run re-provisioning for iterative workloads.
//!
//! [`run_checkpointed`](crate::run_checkpointed) treats the cluster as
//! fixed for the whole loop. Spot markets break that assumption: a bulk
//! revocation can halve the fleet mid-run, and a cost model calibrated
//! offline may mis-predict the hardware actually rented. The driver here
//! re-plans at iteration boundaries, where re-provisioning is cheap (the
//! only live state is the checkpointable iterate):
//!
//! 1. **Refit** — every iteration runs traced; successful task spans are
//!    paired with their plan job's [`job_features`] and fed to
//!    [`fit_samples`], replacing the instance's [`OpCoefficients`] once
//!    enough samples accumulate. A singular fit is skipped, never fatal.
//! 2. **Replace** — revoked or failed capacity is topped back up to
//!    [`ElasticPolicy::target_nodes`] with fresh (on-demand) nodes.
//! 3. **Scale** — under a deadline, the refitted model projects the
//!    remaining iterations; a projected miss grows the fleet by
//!    [`ElasticPolicy::grow_step`], a comfortable surplus shrinks the
//!    extra capacity back toward the target (draining before
//!    decommissioning, so no data is lost even at replication 1).
//!
//! Elasticity is observational with respect to results: growing or
//! shrinking the fleet changes where tasks run, never what they compute,
//! so final iterates stay bitwise-identical to a fixed-fleet run.

use cumulon_cluster::{Cluster, ExecMode, FailurePlan, RunReport, SchedulerConfig};
use cumulon_core::calibrate::{featurize, fit_samples, OpCoefficients};
use cumulon_core::error::CoreError;
use cumulon_core::estimate::{job_features, TaskFeatures};
use cumulon_core::{Optimizer, RecoveryConfig, Result};

use crate::Workload;

/// When and how the elastic driver may act.
#[derive(Debug, Clone, Copy)]
pub struct ElasticPolicy {
    /// Baseline fleet size the driver restores after revocations. Growth
    /// for deadline pressure stacks on top of this.
    pub target_nodes: u32,
    /// Deadline over the whole loop in simulated seconds (`None` = no
    /// scaling, only replacement and refit).
    pub deadline_s: Option<f64>,
    /// Nodes added per boundary when the projection misses the deadline.
    pub grow_step: u32,
    /// Projected-total-to-deadline ratio under which extra capacity
    /// (above `target_nodes`) is released again.
    pub shrink_slack: f64,
    /// Minimum traced samples before the first refit (OLS needs at least
    /// as many as there are features).
    pub min_refit_samples: usize,
    /// Whether to top the fleet back up to `target_nodes` after losses.
    pub replace_lost: bool,
    /// Replication factor assumed when featurizing traced tasks (must
    /// match the optimizer's, normally 3).
    pub replication: u32,
}

impl ElasticPolicy {
    /// Replacement + refit at `target` nodes, no deadline scaling.
    pub fn replace_at(target: u32) -> Self {
        ElasticPolicy {
            target_nodes: target,
            deadline_s: None,
            grow_step: 2,
            shrink_slack: 0.5,
            min_refit_samples: 7,
            replace_lost: true,
            replication: 3,
        }
    }
}

/// One re-provisioning decision, taken after an iteration completed.
#[derive(Debug, Clone)]
pub struct ElasticDecision {
    /// Iterations completed when the decision was taken.
    pub after_iter: usize,
    /// Live nodes before the decision.
    pub live_before: u32,
    /// Whether the cost model was refitted at this boundary.
    pub refit: bool,
    /// Traced samples accumulated so far.
    pub samples: usize,
    /// Nodes added (replacement + deadline growth).
    pub grown: u32,
    /// Nodes gracefully decommissioned.
    pub shrunk: u32,
    /// Human-readable rationale.
    pub reason: String,
}

/// Outcome of an elastic run.
#[derive(Debug)]
pub struct ElasticRun {
    /// One report per iteration.
    pub reports: Vec<RunReport>,
    /// Every boundary decision, in order.
    pub decisions: Vec<ElasticDecision>,
    /// How many times the cost model was refitted.
    pub refits: usize,
}

/// Plan-job index encoded in a traced job name (`"{op}#{idx}"`).
fn plan_index(job_name: &str) -> Option<usize> {
    job_name.rsplit_once('#').and_then(|(_, i)| i.parse().ok())
}

/// Feature-space anchor points for the refit prior: one dominant
/// direction each, at magnitudes typical of real tasks. A single
/// workload's traced tasks often sit in a low-dimensional slice of the
/// feature space (every mat-vec task looks alike), which makes plain OLS
/// singular; labelling these anchors with the *current* model's
/// predictions turns the refit into a proper prior-anchored update — full
/// rank, agreeing with the old model where the trace has no evidence.
fn anchor_features() -> Vec<TaskFeatures> {
    let mut anchors = Vec::new();
    let base = TaskFeatures {
        flops: 1e7,
        local_read: 1e6,
        remote_read: 1e6,
        local_write: 1e6,
        remote_write: 1e6,
        mem_mb: 8.0,
        io_ops: 4.0,
        spill_bytes: 1e6,
    };
    anchors.push(base);
    for i in 0..7 {
        let mut f = base;
        match i {
            0 => f.flops = 2e9,
            1 => f.local_read = 4e8,
            2 => f.remote_read = 4e8,
            3 => f.local_write = 4e8,
            4 => f.remote_write = 4e8,
            5 => f.io_ops = 512.0,
            // Disk-tier direction: keeps the refit full-rank on c₇ when
            // the traced tasks never spilled.
            _ => f.spill_bytes = 4e8,
        }
        anchors.push(f);
    }
    anchors
}

/// Runs `iters` iterations of `workload` on `cluster`, tracing every
/// iteration, refitting the optimizer's cost model from the traced
/// prefix, and re-provisioning the fleet at iteration boundaries per
/// `policy`. Iteration-0 inputs must already be registered (see
/// [`Workload::setup`]).
///
/// `failures_for(iter)` yields the injection plan per iteration, exactly
/// as in [`run_checkpointed`](crate::run_checkpointed); bulk spot
/// revocations in the plan kill nodes permanently, which is what the
/// replacement policy reacts to.
#[allow(clippy::too_many_arguments)]
pub fn run_elastic<W: Workload>(
    workload: &W,
    optimizer: &mut Optimizer,
    cluster: &Cluster,
    iters: usize,
    mode: ExecMode,
    config: SchedulerConfig,
    failures_for: impl Fn(usize) -> FailurePlan,
    recovery: RecoveryConfig,
    policy: ElasticPolicy,
) -> Result<ElasticRun> {
    let mut run = ElasticRun {
        reports: Vec::with_capacity(iters),
        decisions: Vec::new(),
        refits: 0,
    };
    let mut xs: Vec<[f64; 8]> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut elapsed_s = 0.0;
    for iter in 0..iters {
        let program = workload.program(iter);
        let inputs = workload.inputs(iter);
        let prefix = format!("{}e{iter}", workload.name());
        // The plan execute_on_traced will run, rebuilt deterministically so
        // traced spans can be paired with their job's features.
        let (plan, view) = optimizer.build_physical(cluster, &program, &inputs, &prefix)?;
        let trace = cumulon_core::Trace::enabled();
        let report = optimizer.execute_on_traced(
            cluster,
            &program,
            &inputs,
            &prefix,
            mode,
            config,
            &failures_for(iter),
            recovery,
            &trace,
        )?;
        elapsed_s += report.makespan_s;
        run.reports.push(report);
        if let Some(log) = trace.snapshot() {
            for t in log.tasks.iter().filter(|t| t.ok) {
                let Some(name) = log.job_name(t.job, t.round) else {
                    continue;
                };
                let Some(p) = plan_index(name) else { continue };
                if p >= plan.jobs.len() {
                    continue;
                }
                let (_, features) = job_features(&plan.jobs[p], &view);
                xs.push(featurize(&view.instance, view.slots, &features));
                ys.push(t.duration_s());
            }
        }
        // --- boundary decision ---
        let live = cluster.live_nodes();
        let mut decision = ElasticDecision {
            after_iter: iter + 1,
            live_before: live,
            refit: false,
            samples: xs.len(),
            grown: 0,
            shrunk: 0,
            reason: String::new(),
        };
        if xs.len() >= policy.min_refit_samples {
            // Prior-anchored design: traced rows plus anchor rows labelled
            // by the current model, so a low-rank trace still fits.
            let mut axs = xs.clone();
            let mut ays = ys.clone();
            if let Some(current) = optimizer.model().for_instance(view.instance.name) {
                for f in anchor_features() {
                    axs.push(featurize(&view.instance, view.slots, &f));
                    ays.push(current.predict(&view.instance, view.slots, &f));
                }
            }
            match fit_samples(&axs, &ays) {
                Ok(coeffs) => {
                    // Keep the offline sigma if the traced prefix was too
                    // uniform to exhibit stragglers.
                    let sigma = optimizer
                        .model()
                        .for_instance(view.instance.name)
                        .map(|c| c.sigma)
                        .unwrap_or(coeffs.sigma);
                    optimizer.model_mut().insert(
                        view.instance.name,
                        OpCoefficients {
                            sigma: if coeffs.sigma > 0.0 {
                                coeffs.sigma
                            } else {
                                sigma
                            },
                            ..coeffs
                        },
                    );
                    decision.refit = true;
                    run.refits += 1;
                }
                Err(CoreError::Calibration(_)) => {
                    // Singular / degenerate prefix: keep the old model.
                }
                Err(e) => return Err(e),
            }
        }
        if iter + 1 == iters {
            decision.reason = "final iteration".into();
            run.decisions.push(decision);
            break;
        }
        if policy.replace_lost && live < policy.target_nodes {
            let missing = policy.target_nodes - live;
            let ids = cluster.grow(missing);
            decision.grown += ids.len() as u32;
            decision.reason = format!("replaced {missing} lost nodes");
        }
        if let Some(deadline) = policy.deadline_s {
            // Project the remaining loop with the (possibly refitted)
            // model. An estimate failure is advisory, not fatal.
            if let Ok(est) = optimizer.estimate_on(
                cluster,
                &workload.program(iter + 1),
                &workload.inputs(iter + 1),
            ) {
                let remaining = est.makespan_s * (iters - iter - 1) as f64;
                let projected = elapsed_s + remaining;
                let live_now = cluster.live_nodes();
                if projected > deadline {
                    let ids = cluster.grow(policy.grow_step);
                    decision.grown += ids.len() as u32;
                    decision.reason = format!(
                        "projected {projected:.0}s > deadline {deadline:.0}s: grew {}",
                        ids.len()
                    );
                } else if projected < policy.shrink_slack * deadline
                    && live_now > policy.target_nodes
                {
                    let excess = (live_now - policy.target_nodes).min(policy.grow_step);
                    if let Ok(ids) = cluster.shrink(excess) {
                        decision.shrunk = ids.len() as u32;
                        decision.reason = format!(
                            "projected {projected:.0}s < {:.0}% of deadline: shrank {}",
                            policy.shrink_slack * 100.0,
                            ids.len()
                        );
                    }
                }
            }
        }
        if decision.reason.is_empty() {
            decision.reason = "steady".into();
        }
        run.decisions.push(decision);
    }
    Ok(run)
}
