//! Allocation guard for the simulator: counts, never rates.
//!
//! A Simulated task does no arithmetic, so what its host time buys is
//! bookkeeping — and heap allocation is the part of it a count pins
//! exactly. The guard runs one fixed phantom plan twice, each on a fresh
//! cluster, and holds the second run (caches and lazy set-up warm) to an
//! allocation budget per task. A scheduler that asks the DFS something per
//! free slot rather than per task, or builds an error string per locality
//! miss, blows it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cumulon_cluster::{
    Cluster, ClusterSpec, ExecMode, FailurePlan, Job, JobDag, SchedulerConfig, Task,
};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::ops::Work;
use cumulon_matrix::{MatrixMeta, Tile};

thread_local! {
    // Per thread, so the harness's other threads cannot disturb a count.
    // Const-initialized and without a destructor: reading it never
    // allocates, which an allocator hook must not do.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // A thread past its TLS teardown is not one that is being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a thread-local statistic that no
// allocator invariant depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (and reallocations) this thread makes inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const TILE: usize = 1024;
/// Tile rows of the generated input `A` (`ROWS × 8` tiles).
const ROWS: usize = 64;

fn burn(flops: f64) -> Work {
    Work {
        flops,
        bytes_in: 0.0,
        bytes_out: 0.0,
    }
}

/// A three-job phantom chain in the shape the lowering emits: `Y = A·W`
/// band tasks hinted at the generated `A` (no home anywhere), `Z` tasks
/// hinted at the `Y` tiles they fold (a home on one node per replica),
/// and one unhinted task summing `Z`.
fn plan(cluster: &Cluster) -> JobDag {
    let store = cluster.store();
    store
        .register_generated(
            "A",
            MatrixMeta::new(ROWS * TILE, 8 * TILE, TILE),
            Generator::DenseGaussian { seed: 7 },
        )
        .unwrap();
    store
        .register("Y", MatrixMeta::new(ROWS * TILE, TILE, TILE))
        .unwrap();
    store
        .register("Z", MatrixMeta::new(ROWS / 4 * TILE, TILE, TILE))
        .unwrap();
    store
        .register("S", MatrixMeta::new(TILE, TILE, TILE))
        .unwrap();
    let mut dag = JobDag::new();
    let bands = (0..ROWS)
        .map(|i| {
            Task::new(move |ctx| {
                for k in 0..8 {
                    ctx.read_tile("A", i, k)?;
                }
                ctx.charge(burn(2e10));
                ctx.write_tile("Y", i, 0, Tile::phantom_dense(TILE, TILE))
            })
            .with_locality("A", i, 0)
        })
        .collect();
    let y = dag.push(Job::new("mul#0", "mul", bands), vec![]);
    let folds = (0..ROWS / 4)
        .map(|z| {
            Task::new(move |ctx| {
                for i in 4 * z..4 * z + 4 {
                    ctx.read_tile("Y", i, 0)?;
                }
                ctx.charge(burn(4e9));
                ctx.write_tile("Z", z, 0, Tile::phantom_dense(TILE, TILE))
            })
            .with_locality("Y", 4 * z, 0)
        })
        .collect();
    let z = dag.push(Job::new("add#1", "add", folds), vec![y]);
    let sum = Task::new(|ctx| {
        for z in 0..ROWS / 4 {
            ctx.read_tile("Z", z, 0)?;
        }
        ctx.charge(burn(1e9));
        ctx.write_tile("S", 0, 0, Tile::phantom_dense(TILE, TILE))
    });
    dag.push(Job::new("add#2", "add", vec![sum]), vec![z]);
    dag
}

/// Allocations of one Simulated run of [`plan`] on a fresh 8 × 4 cluster,
/// and the tasks it ran.
fn simulated_run() -> (u64, usize) {
    let cluster = Cluster::provision(ClusterSpec::named("c1.xlarge", 8, 4).unwrap()).unwrap();
    let dag = plan(&cluster);
    let config = SchedulerConfig {
        threads: 1,
        ..Default::default()
    };
    let (report, allocations) = allocations_in(|| {
        cluster
            .run_with(&dag, ExecMode::Simulated, config, &FailurePlan::default())
            .unwrap()
    });
    (allocations, report.total_tasks())
}

#[test]
fn a_simulated_task_allocates_a_bounded_count() {
    simulated_run();
    let (allocations, tasks) = simulated_run();
    assert_eq!(tasks, ROWS + ROWS / 4 + 1);
    eprintln!("{allocations} allocations for {tasks} simulated tasks");
    // What a phantom task must allocate: its context's staging, the
    // output's `Arc`, its one namespace path (shared with the block
    // index) and block list, its completion record — 8.7 a task here.
    // A fresh `Arc` per generated-tile read (the band tasks read 8),
    // paths allocated twice and a live-node list built per write cost
    // 17; asking the DFS about every pending task at every free slot, 91.
    const PER_TASK: u64 = 10;
    assert!(
        allocations <= PER_TASK * tasks as u64,
        "{allocations} allocations for {tasks} simulated tasks (budget {PER_TASK} a task)"
    );
}
