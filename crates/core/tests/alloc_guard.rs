//! Allocation guard for the deployment search: counts, never rates.
//!
//! The search costs every split candidate of every multiply of every
//! candidate deployment, so a heap allocation in that innermost loop is
//! paid hundreds of thousands of times per request. These tests hold the
//! loop allocation-free, planning to an allocation count that grows with
//! the plans built, not with the split grid considered, and a deadline
//! search to the candidates its floors let through; and they pin the
//! chooser's costing to the estimator's own formulas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use cumulon_cluster::instances::by_name;
use cumulon_core::deploy::CostBasedChooser;
use cumulon_core::estimate::{job_features, job_time_s, ClusterView};
use cumulon_core::expr::InputDesc;
use cumulon_core::lower::{build_plan, instantiate, FixedSplit, SplitChooser};
use cumulon_core::physical::{partial_name, MatRef, MulSplit, OperandStats};
use cumulon_core::rewrite::standard_pipeline;
use cumulon_core::{
    Constraint, CostModel, DeploymentSearch, PhysJob, Program, ProgramBuilder, SearchSpace,
};
use cumulon_dfs::{Dfs, DfsConfig, TileStore};
use cumulon_matrix::MatrixMeta;

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

fn model() -> CostModel {
    cumulon_core::calibrate::idealized_cost_model()
}

fn chooser(model: &CostModel, instance: &str, nodes: u32, slots: u32) -> CostBasedChooser {
    CostBasedChooser {
        coeffs: *model.for_instance(instance).unwrap(),
        view: ClusterView {
            instance: by_name(instance).unwrap(),
            nodes,
            slots,
            replication: 3,
        },
    }
}

fn dense(rows: usize, cols: usize) -> OperandStats {
    OperandStats {
        meta: MatrixMeta::new(rows, cols, 1000),
        density: 1.0,
        generated: false,
    }
}

#[test]
fn choose_mul_allocates_nothing() {
    let m = model();
    for (instance, nodes, slots) in [("m1.large", 1, 2), ("c1.xlarge", 20, 8)] {
        let chooser = chooser(&m, instance, nodes, slots);
        for (rows, inner, cols) in [
            (1_000, 1_000, 1_000),
            (20_000, 20_000, 20_000),
            (50_000, 7_500, 300),
        ] {
            let (a, b, out) = (dense(rows, inner), dense(inner, cols), dense(rows, cols));
            let (split, allocations) = allocations_in(|| chooser.choose_mul(&a, &b, &out));
            assert_eq!(
                allocations, 0,
                "{instance} x{nodes}: choosing {split:?} for {rows}x{inner}x{cols} allocated"
            );
        }
    }
}

#[test]
fn a_search_allocates_for_the_plans_it_builds_not_the_splits_it_weighs() {
    let m = model();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let gram = b.mul(at, a);
    let sq = b.mul(gram, gram);
    let sum = b.add(sq, gram);
    b.output("OUT", sum);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    let meta = MatrixMeta::new(40_000, 20_000, 1000);
    inputs.insert("A".to_string(), InputDesc::dense(meta));

    let search = DeploymentSearch::new(&m, SearchSpace::quick());
    // A sweep plans and costs every grid point, whatever the floors say.
    let (rows, allocations) = allocations_in(|| search.sweep(&program, &inputs).unwrap());
    // Planning a candidate allocates per job it emits (names, dependency
    // lists, the builder's maps, the estimate's rows) and nothing per
    // split it costs: the two multiplies here weigh 6 x 6 x 7 and 6 x 6 x 6
    // splits, and one allocation per split would be several times the
    // bound.
    let jobs: u64 = rows.iter().map(|r| r.plan.jobs.len() as u64).sum();
    let bound = 16 * (rows.len() as u64 + jobs);
    assert!(
        allocations < bound,
        "{allocations} allocations for {} plans of {jobs} jobs in all (bound {bound})",
        rows.len()
    );
}

/// The RSVD chain of the `optimize_search` benchmark at its seed-1 shape:
/// `Y0 = A·Ω; Y1 = A·(A'·Y0); G1 = Y1'·Y1; Bm = A'·Y1; G2 = Bm'·Bm`,
/// rewritten as `cumulon plan` rewrites it.
fn rsvd() -> (Program, BTreeMap<String, InputDesc>) {
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let omega = b.input("Omega");
    let at = b.transpose(a);
    let y0 = b.mul(a, omega);
    let at_y0 = b.mul(at, y0);
    let y1 = b.mul(a, at_y0);
    let y1t = b.transpose(y1);
    let g1 = b.mul(y1t, y1);
    let bm = b.mul(at, y1);
    let bmt = b.transpose(bm);
    let g2 = b.mul(bmt, bm);
    b.output("G1", g1);
    b.output("G2", g2);
    let inputs = BTreeMap::from([
        (
            "A".to_string(),
            InputDesc::dense(MatrixMeta::new(102_400, 51_200, 2048)).generated(),
        ),
        (
            "Omega".to_string(),
            InputDesc::dense(MatrixMeta::new(51_200, 2047, 2048)).generated(),
        ),
    ]);
    let program = standard_pipeline(&b.build(), &inputs).unwrap();
    (program, inputs)
}

#[test]
fn a_deadline_search_allocates_for_the_candidates_that_can_win() {
    let m = model();
    let (program, inputs) = rsvd();
    let search = DeploymentSearch::new(&m, SearchSpace::default());
    let (winner, allocations) = allocations_in(|| {
        search
            .optimize(&program, &inputs, Constraint::Deadline(7_200.0))
            .unwrap()
    });
    eprintln!(
        "deadline search: {allocations} allocations, {}",
        winner.summary()
    );
    // 448 grid points, of which the makespan and cost floors leave 34 to
    // plan: 5 129 allocations. Planning the 139 that a cost floor at the
    // shortest possible run lets through took 18 510.
    const BUDGET: u64 = 6_500;
    assert!(
        allocations <= BUDGET,
        "{allocations} allocations for one deadline search (budget {BUDGET})"
    );
}

/// Allocations [`instantiate`] makes for `C = A·B` on an 8 × 8 output grid
/// with one task per output tile, each task's k band `width` tiles wide
/// (the whole shared dimension), so every task reads `2 · width` tiles.
fn instantiate_allocations(width: usize) -> (u64, usize) {
    const TILE: usize = 4;
    let a = MatrixMeta::new(8 * TILE, width * TILE, TILE);
    let b = MatrixMeta::new(width * TILE, 8 * TILE, TILE);
    let mut pb = ProgramBuilder::new();
    let (ia, ib) = (pb.input("A"), pb.input("B"));
    let c = pb.mul(ia, ib);
    pb.output("C", c);
    let inputs = BTreeMap::from([
        ("A".to_string(), InputDesc::dense(a)),
        ("B".to_string(), InputDesc::dense(b)),
    ]);
    let split = MulSplit {
        ri: 1,
        rj: 1,
        rk: width,
    };
    let plan = build_plan(&pb.build(), &inputs, &FixedSplit(split, 1), "t").unwrap();
    let store = TileStore::new(Dfs::new(2, DfsConfig::default()));
    let (dag, allocations) = allocations_in(|| instantiate(&plan, &store).unwrap());
    assert_eq!(dag.jobs.len(), 1, "the band spans the shared dimension");
    assert!(dag.jobs[0]
        .tasks
        .iter()
        .all(|t| t.read_set.len() == 2 * width));
    (allocations, dag.total_tasks())
}

#[test]
fn instantiate_allocates_per_task_not_per_tile_read() {
    let (narrow, tasks) = instantiate_allocations(2);
    let (wide, wide_tasks) = instantiate_allocations(16);
    assert_eq!((tasks, wide_tasks), (64, 64));
    eprintln!("instantiate: {narrow} allocations at 4 reads a task, {wide} at 32, {tasks} tasks");
    // A task is its closure and its read set; the matrix names they carry
    // are shared per job, so eight times the reads cost no allocation.
    assert!(
        wide <= narrow,
        "{wide} allocations with 32 reads a task vs {narrow} with 4"
    );
    const PER_TASK: u64 = 3;
    assert!(
        wide <= PER_TASK * tasks as u64,
        "{wide} allocations for {tasks} tasks (budget {PER_TASK} a task)"
    );
}

#[test]
fn candidate_time_is_job_time_over_job_features() {
    let m = model();
    let chooser = chooser(&m, "c1.xlarge", 12, 8);
    let (a, b, out) = (
        dense(20_000, 9_000),
        dense(9_000, 5_000),
        dense(20_000, 5_000),
    );
    let job_time = |job: &PhysJob| {
        let (n_tasks, features) = job_features(job, &chooser.view);
        let mean = chooser
            .coeffs
            .predict(&chooser.view.instance, chooser.view.slots, &features);
        job_time_s(
            mean,
            n_tasks,
            chooser.view.total_slots(),
            chooser.coeffs.sigma,
        )
    };
    for ri in [1, 3, 20] {
        for rj in [1, 2, 5] {
            for rk in [1, 2, 4, 9] {
                let split = MulSplit { ri, rj, rk };
                let mut expect = job_time(&PhysJob::Mul {
                    a: MatRef::plain("a"),
                    a_stats: a,
                    b: MatRef::plain("b"),
                    b_stats: b,
                    out: "o".into(),
                    out_stats: out,
                    split,
                });
                let bands = split.k_bands(9);
                if bands > 1 {
                    expect += job_time(&PhysJob::AddPartials {
                        partials: (0..bands).map(|k| partial_name("o", k)).collect(),
                        out: "o".into(),
                        out_stats: out,
                        tiles_per_task: chooser.tiles_per_task(&out),
                    });
                }
                let got = chooser.mul_candidate_time(&a, &b, &out, split);
                assert_eq!(got.to_bits(), expect.to_bits(), "{split:?}");
            }
        }
    }
}
