//! The scheduler's per-pass locality snapshot picks exactly what a
//! per-slot DFS probe picks.
//!
//! Debug builds of the scheduler carry the probe as an oracle: for every
//! free `(node, slot)` of every pass, in canonical order, the `(job, task)`
//! the snapshot picks and whether that task's input is local are checked
//! against a fresh DFS query, and the run panics on the first divergence.
//! This test drives that oracle where a stale snapshot would show: hints
//! whose home moves between passes — a node death re-replicates or loses
//! its blocks, a revocation warning drains a doomed node's sole replicas
//! to a survivor, a failed attempt's committed output appears under a
//! retry's hint — at replication 1 and 2, with and without speculative
//! backups, over random DAGs mixing tasks hinted at an upstream tile, at
//! a tile of a generated matrix (no home at all), at their own output,
//! and tasks with no hint.

use cumulon_cluster::hw::NoiseModel;
use cumulon_cluster::metrics::FaultStats;
use cumulon_cluster::scheduler::{FailurePlan, Revocation, SchedulerConfig};
use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, HardwareModel, Job, JobDag, Task};
use cumulon_dfs::{DfsConfig, TileStore};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::ops::Work;
use cumulon_matrix::{MatrixMeta, Tile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const TILE: usize = 4;
const NODES: u32 = 4;
/// Tiles of the generated input `G`.
const GENERATED_TILES: usize = 8;

/// A random DAG over `m0..mN`, one task per output tile. Each task reads
/// its hint tile (if it has one and it is an input), burns some flops and
/// writes its own tile.
fn random_dag(rng: &mut StdRng, store: &TileStore) -> JobDag {
    store
        .register_generated(
            "G",
            MatrixMeta::new(GENERATED_TILES * TILE, TILE, TILE),
            Generator::DenseGaussian { seed: 3 },
        )
        .unwrap();
    let mut dag = JobDag::new();
    let mut sizes: Vec<usize> = Vec::new();
    for j in 0..rng.random_range(2usize..5) {
        let tiles = rng.random_range(1usize..13);
        let out = format!("m{j}");
        store
            .register(&out, MatrixMeta::new(tiles * TILE, TILE, TILE))
            .unwrap();
        let deps: Vec<usize> = (0..j).filter(|_| rng.random_range(0..3) > 0).collect();
        let tasks = (0..tiles)
            .map(|t| {
                let hint = match rng.random_range(0..4) {
                    0 => None,
                    1 => Some(("G".to_string(), t % GENERATED_TILES)),
                    _ if deps.is_empty() => Some((out.clone(), t)),
                    _ => {
                        let d = deps[t % deps.len()];
                        Some((format!("m{d}"), t % sizes[d]))
                    }
                };
                let input = hint.clone().filter(|(m, _)| *m != out);
                let flops = rng.random_range(1e9f64..2e10);
                let out = out.clone();
                let task = Task::new(move |ctx| {
                    let mut acc = match ctx.mode {
                        ExecMode::Real => Tile::zeros(TILE, TILE),
                        ExecMode::Simulated => Tile::phantom_dense(TILE, TILE),
                    };
                    if let Some((m, ti)) = &input {
                        let tile = ctx.read_tile(m, *ti, 0)?;
                        acc.add_assign(&tile)?;
                    }
                    ctx.charge(Work {
                        flops,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    ctx.write_tile(&out, t, 0, acc)?;
                    Ok(())
                });
                match &hint {
                    Some((m, ti)) => task.with_locality(m.as_str(), *ti, 0),
                    None => task,
                }
            })
            .collect();
        dag.push(Job::new(out, "mix", tasks), deps);
        sizes.push(tiles);
    }
    dag
}

/// One case: a fault-free probe run to learn the makespan, then the same
/// DAG with a node death and a warned revocation placed inside it.
/// Returns the faulted run's counters, whether it completed or not (at
/// replication 1 a lost tile can exhaust its readers' attempts; the picks
/// up to that point are checked all the same).
fn run_case(case: u64) -> FaultStats {
    let mut rng = StdRng::seed_from_u64(case);
    let replication = rng.random_range(1usize..3);
    let speculative = rng.random_range(0..2) == 1;
    let mode = if rng.random_range(0..2) == 1 {
        ExecMode::Real
    } else {
        ExecMode::Simulated
    };
    let noise_seed = rng.random_range(0u64..1000);
    let dag_seed = rng.random_range(0u64..1000);
    let cluster = || {
        let c = Cluster::provision_with(
            ClusterSpec::named("m1.large", NODES, 2).unwrap(),
            HardwareModel {
                noise: NoiseModel {
                    sigma: 0.5,
                    seed: noise_seed,
                },
                ..Default::default()
            },
            DfsConfig {
                replication,
                ..Default::default()
            },
        )
        .unwrap();
        let dag = random_dag(&mut StdRng::seed_from_u64(dag_seed), c.store());
        (c, dag)
    };
    let config = SchedulerConfig {
        speculative,
        threads: 1,
        ..Default::default()
    };
    let (probe, dag) = cluster();
    let makespan = probe
        .run_with(&dag, mode, config, &FailurePlan::default())
        .unwrap()
        .makespan_s;
    let killed = rng.random_range(0..NODES);
    let revoked = (killed + rng.random_range(1..NODES)) % NODES;
    let at = rng.random_range(0.4f64..0.8) * makespan;
    let failures = FailurePlan {
        task_failure_prob: 0.1,
        node_failures: vec![(rng.random_range(0.1f64..0.7) * makespan, killed)],
        revocations: vec![Revocation {
            at_s: at,
            nodes: vec![revoked],
            warning_lead_s: rng.random_range(0.1f64..0.4) * makespan,
        }],
        seed: case,
    };
    let (faulted, dag) = cluster();
    match faulted.try_run_with(&dag, mode, config, &failures) {
        Ok(report) => report.faults,
        Err(failure) => failure.faults,
    }
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the probe oracle is compiled into debug builds only"
)]
fn snapshot_picks_what_the_probe_picks() {
    let (mut moved, mut backups, mut retries) = (0, 0, 0);
    for case in 0..64 {
        let faults = run_case(case);
        moved += u32::from(faults.rereplicated_bytes > 0 || faults.drained_bytes > 0);
        backups += u32::from(faults.speculative_launches > 0);
        retries += u32::from(faults.retries > 0);
    }
    // The lattice really moved homes under pending work, launched
    // backups and retried attempts — otherwise the oracle had nothing
    // to catch.
    assert!(moved >= 16, "{moved} of 64 runs moved a replica");
    assert!(backups >= 8, "{backups} of 64 runs launched a backup");
    assert!(retries >= 16, "{retries} of 64 runs retried an attempt");
}
