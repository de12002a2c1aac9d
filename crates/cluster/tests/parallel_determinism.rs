//! Determinism contract of the wave executor: a run at any worker thread
//! count, memory budget and prefetch depth is *bitwise-identical* to the
//! single-threaded, unbudgeted, prefetch-off run — run reports, fault
//! accounting, stored files and output matrices — including under injected
//! task failures, node kills and runs that abort mid-wave. Every float is
//! compared by its bit pattern, not by `==`.

use cumulon_cluster::hw::NoiseModel;
use cumulon_cluster::metrics::JobStats;
use cumulon_cluster::scheduler::{FailurePlan, RunFailure, SchedulerConfig};
use cumulon_cluster::{
    Cluster, ClusterSpec, ExecMode, HardwareModel, Job, JobDag, RunReport, Task, TaskReceipt, Trace,
};
use cumulon_dfs::{DfsConfig, SpillConfig, StorageAccounting};
use cumulon_matrix::ops::Work;
use cumulon_matrix::{LocalMatrix, MatrixMeta, Tile};
use proptest::prelude::*;

const TILE: usize = 4;

/// Shape of a randomly generated tile-shuffling DAG.
#[derive(Debug, Clone)]
struct DagShape {
    /// Tiles (grid rows) of each job's output matrix; one task per tile.
    job_tiles: Vec<usize>,
    /// `deps_mask[j]` selects dependencies among jobs `0..j` by bit.
    deps_mask: Vec<u64>,
    /// `(job, task)` whose logic fails every attempt, after its reads and
    /// before its write (ignored when the DAG has no such task).
    poison: Option<(usize, usize)>,
}

fn dag_shape() -> impl Strategy<Value = DagShape> {
    proptest::collection::vec((1usize..5, any::<u64>()), 1..5).prop_map(|v| DagShape {
        job_tiles: v.iter().map(|&(t, _)| t).collect(),
        deps_mask: v.iter().map(|&(_, m)| m).collect(),
        poison: None,
    })
}

/// Builds the DAG over matrices `m0..mN` on `store`, one real tile task per
/// output tile: each task seeds a deterministic tile (a phantom one in
/// `Simulated` mode), folds in one tile of every dependency matrix, and
/// writes its own tile.
fn build_dag(shape: &DagShape, store: &cumulon_dfs::TileStore) -> JobDag {
    let mut dag = JobDag::new();
    for (j, &tiles) in shape.job_tiles.iter().enumerate() {
        store
            .register(&format!("m{j}"), MatrixMeta::new(tiles * TILE, TILE, TILE))
            .unwrap();
        let deps: Vec<usize> = (0..j)
            .filter(|d| shape.deps_mask[j] & (1 << d) != 0)
            .collect();
        let dep_tiles: Vec<(usize, usize)> =
            deps.iter().map(|&d| (d, shape.job_tiles[d])).collect();
        let mut tasks = Vec::with_capacity(tiles);
        for t in 0..tiles {
            let dep_tiles = dep_tiles.clone();
            let read_set = dep_tiles
                .iter()
                .map(|&(d, dt)| (format!("m{d}").into(), t % dt, 0))
                .collect();
            let out = format!("m{j}");
            let poisoned = shape.poison == Some((j, t));
            tasks.push(
                Task::new(move |ctx| {
                    let seed = (j * 31 + t * 7) as f64;
                    let mut acc = match ctx.mode {
                        ExecMode::Real => Tile::zeros(TILE, TILE).map(move |_| seed * 0.5 + 1.0),
                        ExecMode::Simulated => Tile::phantom_dense(TILE, TILE),
                    };
                    for &(d, dt) in &dep_tiles {
                        let dep = ctx.read_tile(&format!("m{d}"), t % dt, 0)?;
                        ctx.charge(cumulon_matrix::ops::add_work(&acc, &dep));
                        acc.add_assign(&dep)?;
                    }
                    ctx.charge(Work {
                        flops: seed * 1e8 + 1e8,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    acc.scale(0.75);
                    if poisoned {
                        return Err(cumulon_cluster::ClusterError::Kernel("poisoned".into()));
                    }
                    ctx.write_tile(&out, t, 0, &acc)?;
                    Ok(())
                })
                .with_locality(format!("m{j}"), t, 0)
                .with_read_set(read_set),
            );
        }
        dag.push(Job::new(format!("j{j}"), "shuffle", tasks), deps);
    }
    dag
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn receipt_key(r: &TaskReceipt) -> String {
    format!(
        "w[{},{},{}] r[{},{},{}] wr[{},{},{}] mem{} fix{} io{}",
        bits(r.work.flops),
        bits(r.work.bytes_in),
        bits(r.work.bytes_out),
        r.read.bytes,
        r.read.local_bytes,
        r.read.remote_bytes,
        r.write.bytes,
        r.write.local_bytes,
        r.write.remote_bytes,
        bits(r.mem_mb),
        bits(r.fixed_s),
        r.io_ops,
    )
}

fn job_key(j: &JobStats) -> String {
    let tasks: Vec<String> = j
        .tasks
        .iter()
        .map(|t| {
            format!(
                "{}@{}[{}-{}]x{}l{}",
                t.task,
                t.node,
                bits(t.start_s),
                bits(t.end_s),
                t.attempts,
                t.input_local
            )
        })
        .collect();
    format!(
        "{}/{} [{}-{}] tasks({}) {}",
        j.name,
        j.op_label,
        bits(j.start_s),
        bits(j.end_s),
        tasks.join(","),
        receipt_key(&j.receipt)
    )
}

fn report_key(r: &RunReport) -> String {
    let jobs: Vec<String> = r.jobs.iter().map(job_key).collect();
    format!(
        "{} n{} s{} mk{} bh{} $ {} {:?}\n{}",
        r.instance,
        r.nodes,
        r.slots,
        bits(r.makespan_s),
        bits(r.billed_hours),
        bits(r.cost_dollars),
        r.faults,
        jobs.join("\n")
    )
}

fn failure_key(f: &RunFailure) -> String {
    let jobs: Vec<String> = f.completed_jobs.iter().map(job_key).collect();
    format!(
        "err({}) failed{:?} lost{:?} dead{:?} mk{} {:?}\n{}",
        f.error,
        f.failed,
        f.lost_blocks,
        f.dead_nodes,
        bits(f.makespan_s),
        f.faults,
        jobs.join("\n")
    )
}

/// One point of the host-side lattice. None of it may show in the outcome.
#[derive(Debug, Clone, Copy)]
struct Host {
    threads: usize,
    /// Resident-byte budget of the tile store, if any.
    budget: Option<u64>,
    prefetch_depth: usize,
    traced: bool,
}

/// The reference point every other one must reproduce.
const BASE: Host = Host {
    threads: 1,
    budget: None,
    prefetch_depth: 0,
    traced: false,
};

/// A 4x4 dense tile is ~150 wire bytes: this keeps a handful resident and
/// evicts continuously.
const TIGHT: u64 = 600;

fn host() -> impl Strategy<Value = Host> {
    (
        1usize..8,
        prop_oneof![Just(None), Just(Some(TIGHT))],
        prop_oneof![Just(0usize), Just(4usize)],
    )
        .prop_map(|(threads, budget, prefetch_depth)| Host {
            threads,
            budget,
            prefetch_depth,
            traced: false,
        })
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Canonical key of the report, or of the failure.
    key: String,
    /// Output matrices of a successful Real-mode run.
    outputs: Vec<LocalMatrix>,
    /// Every tile file the run left in the store.
    files: Vec<String>,
    accounting: StorageAccounting,
}

/// One full run at a given lattice point: fresh cluster, fresh DFS state,
/// same seeds. Returns the outcome plus the spill plane's
/// `(evictions, prefetched files)`.
fn run_point(
    shape: &DagShape,
    failures: &FailurePlan,
    noise_seed: u64,
    mode: ExecMode,
    max_attempts: u32,
    host: Host,
) -> (Outcome, (u64, u64)) {
    let hw = HardwareModel {
        noise: NoiseModel {
            sigma: 0.3,
            seed: noise_seed,
        },
        ..Default::default()
    };
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 3, 2).unwrap(),
        hw,
        DfsConfig::default(),
    )
    .unwrap();
    if let Some(budget) = host.budget {
        cluster
            .store()
            .set_memory_budget(&SpillConfig::budgeted(budget))
            .unwrap();
    }
    let dag = build_dag(shape, cluster.store());
    let config = SchedulerConfig {
        speculative: true,
        max_attempts,
        ..SchedulerConfig::default()
    }
    .with_threads(host.threads)
    .with_prefetch(host.prefetch_depth);
    let trace = if host.traced {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let (key, outputs) = match cluster.try_run_with_traced(&dag, mode, config, failures, &trace) {
        Ok(report) => {
            let outputs = match mode {
                ExecMode::Real => (0..shape.job_tiles.len())
                    .map(|j| cluster.store().get_local(&format!("m{j}")).unwrap())
                    .collect(),
                ExecMode::Simulated => Vec::new(),
            };
            (report_key(&report), outputs)
        }
        Err(failure) => (failure_key(&failure), Vec::new()),
    };
    let dfs = cluster.store().dfs();
    let spill = dfs
        .spill_stats()
        .map_or((0, 0), |s| (s.evictions, s.prefetched_files));
    let outcome = Outcome {
        key,
        outputs,
        files: dfs.list("/matrix/"),
        accounting: dfs.storage_accounting(),
    };
    (outcome, spill)
}

/// One full Real-mode run at a given thread count, unbudgeted. With
/// `traced` the run records spans into an enabled [`Trace`] handle — the
/// key must not change.
fn run_once(
    shape: &DagShape,
    failures: &FailurePlan,
    noise_seed: u64,
    threads: usize,
    traced: bool,
) -> (String, Vec<LocalMatrix>) {
    let host = Host {
        threads,
        traced,
        ..BASE
    };
    let (outcome, _) = run_point(shape, failures, noise_seed, ExecMode::Real, 4, host);
    (outcome.key, outcome.outputs)
}

/// A wave that aborts in the middle: six tasks fill the six idle slots the
/// moment the first job completes, and the third fails its only attempt.
/// At every lattice point the two entries ahead of it committed their
/// tiles and the three behind it — resolved or not — left nothing, and
/// under the tight budget the spill plane really was exercised.
#[test]
fn mid_wave_abort_leaves_identical_state_across_the_lattice() {
    let shape = DagShape {
        job_tiles: vec![8, 6],
        deps_mask: vec![0, 1],
        poison: Some((1, 2)),
    };
    let failures = FailurePlan::default();
    let mut prefetched_at_t1 = 0;
    for mode in [ExecMode::Real, ExecMode::Simulated] {
        let (base, _) = run_point(&shape, &failures, 7, mode, 1, BASE);
        assert!(base.key.starts_with("err("), "{}", base.key);
        let m1: Vec<&String> = base.files.iter().filter(|f| f.contains("/m1/")).collect();
        assert_eq!(m1, ["/matrix/m1/0_0", "/matrix/m1/1_0"], "{:?}", base.files);
        for threads in [1, 4] {
            for budget in [None, Some(TIGHT)] {
                for prefetch_depth in [0, 4] {
                    let host = Host {
                        threads,
                        budget,
                        prefetch_depth,
                        traced: false,
                    };
                    let (got, (evictions, prefetched)) =
                        run_point(&shape, &failures, 7, mode, 1, host);
                    assert_eq!(got, base, "{mode:?} {host:?}");
                    if mode == ExecMode::Real && budget.is_some() {
                        assert!(evictions > 0, "tight budget must evict: {host:?}");
                        if threads == 1 && prefetch_depth > 0 {
                            prefetched_at_t1 += prefetched;
                        }
                    }
                }
            }
        }
    }
    assert!(prefetched_at_t1 > 0, "frontier prefetch must fire");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every host-side lattice point is bitwise-equal to the sequential,
    /// unbudgeted, prefetch-off one — report or failure, stored files and
    /// storage accounting — for random DAGs, thread counts, budgets,
    /// prefetch depths, execution modes, injected task failures, poisoned
    /// tasks and node kill schedules.
    #[test]
    fn parallel_runs_bitwise_match_sequential(
        (shape, poison) in (
            dag_shape(),
            prop_oneof![7 => Just(None), 3 => (0usize..4, 0usize..4).prop_map(Some)],
        ),
        (host, mode, max_attempts) in (
            host(),
            prop_oneof![Just(ExecMode::Real), Just(ExecMode::Simulated)],
            1u32..5,
        ),
        fail_p in 0.0f64..0.35,
        fail_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        kills in proptest::collection::vec((1.0f64..500.0, 0u32..3), 0..3),
    ) {
        let shape = DagShape { poison, ..shape };
        let failures = FailurePlan {
            task_failure_prob: fail_p,
            node_failures: kills.iter().map(|&(t, n)| (t, n)).collect(),
            seed: fail_seed,
            ..Default::default()
        };
        let (seq, _) = run_point(&shape, &failures, noise_seed, mode, max_attempts, BASE);
        let (par, _) = run_point(&shape, &failures, noise_seed, mode, max_attempts, host);
        prop_assert_eq!(seq, par);
    }

    /// Tracing is observational: an enabled trace handle never perturbs
    /// the run — reports, fault accounting, and output matrices are
    /// bitwise-identical with tracing on and off, at any thread count and
    /// under injected faults.
    #[test]
    fn tracing_never_perturbs_results(
        shape in dag_shape(),
        threads in 1usize..8,
        fail_p in 0.0f64..0.35,
        fail_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        kills in proptest::collection::vec((1.0f64..500.0, 0u32..3), 0..3),
    ) {
        let failures = FailurePlan {
            task_failure_prob: fail_p,
            node_failures: kills.iter().map(|&(t, n)| (t, n)).collect(),
            seed: fail_seed,
            ..Default::default()
        };
        let (off_key, off_out) = run_once(&shape, &failures, noise_seed, threads, false);
        let (on_key, on_out) = run_once(&shape, &failures, noise_seed, threads, true);
        prop_assert_eq!(off_key, on_key);
        prop_assert_eq!(off_out, on_out);
    }

    /// Thread count is not part of the outcome: every pool size produces
    /// the same report as every other.
    #[test]
    fn all_pool_sizes_agree(
        shape in dag_shape(),
        noise_seed in 0u64..1000,
    ) {
        let failures = FailurePlan::default();
        let (base, out_base) = run_once(&shape, &failures, noise_seed, 2, false);
        for threads in [3, 5, 16] {
            let (key, out) = run_once(&shape, &failures, noise_seed, threads, false);
            prop_assert_eq!(&base, &key, "threads={} diverged", threads);
            prop_assert_eq!(&out_base, &out);
        }
    }
}
