//! Spot-market survivability and elastic re-provisioning, end to end.
//!
//! The acceptance bar: a power-iteration run that loses half its fleet to
//! one correlated bulk revocation must still finish — drain what the
//! warning window allows, recover the rest via lineage (rewinding to a
//! checkpoint when lineage is truncated) — and produce a final iterate
//! bitwise-identical to the failure-free run, at any worker thread count.

use cumulon_cluster::scheduler::Revocation;
use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, SchedulerConfig};
use cumulon_core::{Optimizer, RecoveryConfig};
use cumulon_dfs::DfsConfig;
use cumulon_workloads::power::PowerIteration;
use cumulon_workloads::{run_checkpointed, run_elastic, CheckpointPolicy, ElasticPolicy, Workload};
use proptest::prelude::*;

fn optimizer() -> Optimizer {
    Optimizer::new(cumulon_core::calibrate::idealized_cost_model())
}

fn power() -> PowerIteration {
    PowerIteration {
        n: 24,
        tile_size: 6,
        density: 0.5,
        seed: 7,
    }
}

/// A replication-1 cluster (every lost node loses data) with inputs set up.
fn repl1_cluster(w: &PowerIteration, nodes: u32) -> Cluster {
    let spec = ClusterSpec::named("m1.large", nodes, 2).unwrap();
    let cluster = Cluster::provision_with(
        spec,
        Default::default(),
        DfsConfig {
            replication: 1,
            ..Default::default()
        },
    )
    .unwrap();
    w.setup(cluster.store()).unwrap();
    cluster
}

fn threads_config(threads: usize) -> SchedulerConfig {
    SchedulerConfig {
        threads,
        ..Default::default()
    }
}

fn x_bits(cluster: &Cluster, iter: usize) -> Vec<u64> {
    cluster
        .store()
        .get_local(&format!("x_{iter}"))
        .unwrap()
        .to_dense_vec()
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// ISSUE acceptance: bulk revocation of half the fleet mid-run, bitwise
/// identical outcome at threads 1 and N.
#[test]
fn half_fleet_revocation_is_bitwise_survivable() {
    let w = power();
    let opt = optimizer();
    let iters = 3usize;
    let policy = CheckpointPolicy {
        interval: 2,
        replication: 3,
        max_rewinds: 6,
    };

    // Failure-free baseline at one thread.
    let baseline = repl1_cluster(&w, 8);
    let clean = run_checkpointed(
        &w,
        &opt,
        &baseline,
        iters,
        ExecMode::Real,
        threads_config(1),
        |_| FailurePlan::default(),
        RecoveryConfig::default(),
        policy,
    )
    .unwrap();
    assert_eq!(clean.reports.len(), iters);
    let clean_bits = x_bits(&baseline, iters);
    let mid = clean.reports[1].makespan_s / 2.0;

    // Revoke half the fleet (nodes 4..8) together in iteration 1, with a
    // warning window the drain can use.
    let revoke = move |iter: usize| {
        if iter == 1 {
            FailurePlan {
                revocations: vec![Revocation {
                    at_s: mid,
                    nodes: vec![4, 5, 6, 7],
                    warning_lead_s: mid / 2.0,
                }],
                ..Default::default()
            }
        } else {
            FailurePlan::default()
        }
    };
    for threads in [1usize, 4] {
        let cluster = repl1_cluster(&w, 8);
        let run = run_checkpointed(
            &w,
            &opt,
            &cluster,
            iters,
            ExecMode::Real,
            threads_config(threads),
            revoke,
            RecoveryConfig::default(),
            policy,
        )
        .unwrap();
        assert_eq!(run.reports.len(), iters);
        assert_eq!(
            cluster.live_nodes(),
            4,
            "half the fleet must actually be gone (threads {threads})"
        );
        // The revocation must be visible somewhere: either the surviving
        // iteration's fault stats recorded it, or it forced a rewind.
        let revocations: u64 = run.reports.iter().map(|r| r.faults.revocations).sum();
        assert!(
            revocations >= 1 || run.rewinds >= 1,
            "revocation left no trace in the run accounting (threads {threads})"
        );
        assert_eq!(
            x_bits(&cluster, iters),
            clean_bits,
            "final iterate diverged from fault-free at threads {threads}"
        );
    }
}

/// Elastic driver: revoked capacity is replaced with fresh nodes at the
/// next boundary, the cost model refits from the traced prefix, and the
/// result stays bitwise-identical to a fixed-fleet failure-free run.
#[test]
fn elastic_replaces_revoked_capacity_and_refits() {
    let w = power();
    let iters = 3usize;

    // Fixed-fleet failure-free baseline (replication 3: no data loss).
    let baseline = {
        let spec = ClusterSpec::named("m1.large", 6, 2).unwrap();
        let cluster = Cluster::provision(spec).unwrap();
        w.setup(cluster.store()).unwrap();
        let opt = optimizer();
        run_checkpointed(
            &w,
            &opt,
            &cluster,
            iters,
            ExecMode::Real,
            SchedulerConfig::default(),
            |_| FailurePlan::default(),
            RecoveryConfig::default(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        x_bits(&cluster, iters)
    };

    let spec = ClusterSpec::named("m1.large", 6, 2).unwrap();
    let cluster = Cluster::provision(spec).unwrap();
    w.setup(cluster.store()).unwrap();
    let mut opt = optimizer();
    let run = run_elastic(
        &w,
        &mut opt,
        &cluster,
        iters,
        ExecMode::Real,
        SchedulerConfig::default(),
        |iter| {
            if iter == 0 {
                FailurePlan {
                    revocations: vec![Revocation {
                        at_s: 1e-3,
                        nodes: vec![4, 5],
                        warning_lead_s: 5e-4,
                    }],
                    ..Default::default()
                }
            } else {
                FailurePlan::default()
            }
        },
        RecoveryConfig::default(),
        ElasticPolicy::replace_at(6),
    )
    .unwrap();
    assert_eq!(run.reports.len(), iters);
    assert_eq!(run.decisions.len(), iters);
    // The first boundary replaced the two revoked nodes with fresh ids.
    assert_eq!(run.decisions[0].grown, 2, "{:?}", run.decisions[0]);
    assert_eq!(cluster.live_nodes(), 6);
    // Samples accumulated every iteration, and once past the minimum the
    // prior-anchored refit must actually fire.
    assert!(run.decisions[iters - 1].samples > run.decisions[0].samples);
    assert!(run.refits >= 1, "{:?}", run.decisions);
    // Elasticity must not perturb the numerics.
    assert_eq!(x_bits(&cluster, iters), baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bulk revocations at arbitrary DES times — including during the
    /// checkpoint-adjacent first iteration and during recovery replays —
    /// never change the final iterate, at 1 worker thread or several.
    #[test]
    fn arbitrary_bulk_revocations_are_bitwise_identical(
        at_frac in 0.05f64..1.2,
        mask in 1u32..15,            // any non-empty strict subset of 4 nodes
        lead_frac in 0.0f64..0.5,
        target_iter in 0usize..2,
        many_threads in any::<bool>(),
    ) {
        let threads = if many_threads { 4usize } else { 1 };
        let w = PowerIteration { n: 18, tile_size: 6, density: 0.5, seed: 11 };
        let opt = optimizer();
        let iters = 2usize;
        let policy = CheckpointPolicy { interval: 1, replication: 3, max_rewinds: 6 };

        let baseline = repl1_cluster(&w, 4);
        let clean = run_checkpointed(
            &w, &opt, &baseline, iters, ExecMode::Real, threads_config(1),
            |_| FailurePlan::default(), RecoveryConfig::default(), policy,
        ).unwrap();
        let clean_bits = x_bits(&baseline, iters);
        let span = clean.reports[target_iter].makespan_s;

        let nodes: Vec<u32> = (0..4u32).filter(|n| mask & (1 << n) != 0).collect();
        let at_s = at_frac * span;
        let revoke = |iter: usize| {
            if iter == target_iter {
                FailurePlan {
                    revocations: vec![Revocation {
                        at_s,
                        nodes: nodes.clone(),
                        warning_lead_s: lead_frac * at_s,
                    }],
                    ..Default::default()
                }
            } else {
                FailurePlan::default()
            }
        };
        let cluster = repl1_cluster(&w, 4);
        let run = run_checkpointed(
            &w, &opt, &cluster, iters, ExecMode::Real, threads_config(threads),
            revoke, RecoveryConfig::default(), policy,
        ).unwrap();
        prop_assert_eq!(run.reports.len(), iters);
        prop_assert_eq!(x_bits(&cluster, iters), clean_bits);
    }
}
