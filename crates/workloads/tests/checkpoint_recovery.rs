//! Checkpoint + rewind across GNMF iterations: losing an iterate that
//! lineage cannot replay (its producer ran in an earlier iteration's
//! program) must rewind to the last checkpoint and still converge to the
//! exact failure-free factors.

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, SchedulerConfig};
use cumulon_core::{Optimizer, RecoveryConfig};
use cumulon_dfs::DfsConfig;
use cumulon_matrix::serialize::encoded_len;
use cumulon_matrix::Tile;
use cumulon_workloads::gnmf::Gnmf;
use cumulon_workloads::{run_checkpointed, CheckpointPolicy, Workload};

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

/// A replication-1 cluster with GNMF inputs registered.
fn repl1_cluster(g: &Gnmf) -> Cluster {
    let spec = ClusterSpec::named("m1.large", 4, 2).unwrap();
    let cluster = Cluster::provision_with(
        spec,
        Default::default(),
        DfsConfig {
            replication: 1,
            ..Default::default()
        },
    )
    .unwrap();
    g.setup(cluster.store()).unwrap();
    cluster
}

#[test]
fn gnmf_rewinds_to_checkpoint_after_iterate_loss() {
    let g = small();
    let opt = optimizer();
    let iters = 4usize;
    let policy = CheckpointPolicy {
        interval: 2,
        replication: 3,
        max_rewinds: 4,
    };

    // Failure-free baseline.
    let baseline = repl1_cluster(&g);
    let clean = run_checkpointed(
        &g,
        &opt,
        &baseline,
        iters,
        ExecMode::Real,
        SchedulerConfig::default(),
        |_| FailurePlan::default(),
        RecoveryConfig::default(),
        policy,
    )
    .unwrap();
    assert_eq!(clean.reports.len(), iters);
    assert_eq!(clean.rewinds, 0);
    // One checkpoint, after iteration 2, of W_2 (4 tiles of 6×4) and H_2
    // (3 tiles of 4×6): every tile's encoding read once, rewritten once.
    let tile_wire = encoded_len(&Tile::zeros(6, 4));
    assert_eq!(clean.checkpoint_bytes, 2 * (4 + 3) * tile_wire);
    let w_clean = baseline.store().get_local(&Gnmf::w_name(iters)).unwrap();
    let h_clean = baseline.store().get_local(&Gnmf::h_name(iters)).unwrap();

    // Kill each node in turn at the start of iteration 3. Iteration 3
    // reads W_3/H_3 (replication 1, produced by iteration 2 — no producer
    // in iteration 3's plan), so when the dead node held iterate tiles
    // the driver must rewind to the iteration-2 checkpoint (W_2/H_2 at
    // replication 3, which the death cannot touch) and replay.
    let mut rewound_any = false;
    for node in 0..4u32 {
        let cluster = repl1_cluster(&g);
        let run = run_checkpointed(
            &g,
            &opt,
            &cluster,
            iters,
            ExecMode::Real,
            SchedulerConfig::default(),
            |iter| {
                if iter == 3 {
                    FailurePlan {
                        node_failures: vec![(1e-3, node)],
                        ..Default::default()
                    }
                } else {
                    FailurePlan::default()
                }
            },
            RecoveryConfig::default(),
            policy,
        )
        .unwrap();
        assert_eq!(run.reports.len(), iters);
        let w = cluster.store().get_local(&Gnmf::w_name(iters)).unwrap();
        let h = cluster.store().get_local(&Gnmf::h_name(iters)).unwrap();
        assert_eq!(
            w.max_abs_diff(&w_clean).unwrap(),
            0.0,
            "W diverged after killing node {node}"
        );
        assert_eq!(
            h.max_abs_diff(&h_clean).unwrap(),
            0.0,
            "H diverged after killing node {node}"
        );
        if run.rewinds > 0 {
            rewound_any = true;
            assert!(
                run.wasted_makespan_s > 0.0,
                "a rewind discards simulated work"
            );
        }
    }
    assert!(
        rewound_any,
        "no node death forced a rewind — test lost its teeth"
    );
}

#[test]
fn checkpoint_interval_zero_restarts_from_scratch() {
    let g = small();
    let opt = optimizer();
    let policy = CheckpointPolicy {
        interval: 0,
        replication: 3,
        max_rewinds: 4,
    };
    let cluster = repl1_cluster(&g);
    // Lose an iterate in iteration 2: with checkpointing disabled the
    // driver must restart from iteration 0 (generated inputs) and still
    // finish correctly.
    let run = run_checkpointed(
        &g,
        &opt,
        &cluster,
        3,
        ExecMode::Real,
        SchedulerConfig::default(),
        |iter| {
            if iter == 2 {
                FailurePlan {
                    node_failures: vec![(1e-3, 0), (2e-3, 1)],
                    ..Default::default()
                }
            } else {
                FailurePlan::default()
            }
        },
        RecoveryConfig::default(),
        policy,
    )
    .unwrap();
    assert_eq!(run.reports.len(), 3);
    assert_eq!(run.checkpoint_bytes, 0);
    // Whether a rewind happened depends on tile placement; either way the
    // factors must exist and be finite.
    let w = cluster.store().get_local(&Gnmf::w_name(3)).unwrap();
    assert!(w.to_dense_vec().unwrap().iter().all(|v| v.is_finite()));
}
