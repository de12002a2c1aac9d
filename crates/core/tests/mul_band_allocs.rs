//! Allocation guard for the multiply task: counts, never rates.
//!
//! At 256² tiles every tile-sized buffer is 512 KiB — a product tile, a
//! transposed copy of an `A'` tile, the packed-B scratch of a multiply.
//! This test runs a fixed Real-mode `G = A'·A` twice in one process and
//! counts the second run's allocations of at least 256 KiB: each multiply
//! must allocate its product and nothing else that large, beyond one pack
//! scratch per mul task. A transposed band that copied its `A'` tiles, or
//! a multiply that packed into a fresh buffer, breaks the count.
//!
//! One test per binary: the counter is process-wide (the scheduler may run
//! tasks off the test thread), so nothing else may allocate beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cumulon_cluster::{Cluster, ClusterSpec, ExecMode};
use cumulon_core::expr::InputDesc;
use cumulon_core::lower::{build_plan, instantiate, FixedSplit};
use cumulon_core::{MulSplit, ProgramBuilder};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{LocalMatrix, MatrixMeta};

/// Allocations this large are tile-sized at the test's tile size.
const BIG: usize = 256 << 10;

static BIG_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    if size >= BIG {
        BIG_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic that no allocator
// invariant depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_transposed_mul_band_allocates_its_products_and_one_scratch_per_task() {
    let meta = MatrixMeta::new(512, 512, 256);
    let cluster = Cluster::provision(ClusterSpec::named("m1.large", 2, 2).unwrap()).unwrap();
    let a = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 7 });
    cluster.store().put_local("A", &a).unwrap();
    let inputs = BTreeMap::from([("A".to_string(), InputDesc::dense(meta))]);
    // One task per output tile row: each reads two `A'` tiles and uses
    // each of them twice, so a band that copied them would show.
    let split = MulSplit {
        ri: 1,
        rj: 2,
        rk: 2,
    };
    let run = |out: &str| {
        let mut b = ProgramBuilder::new();
        let ia = b.input("A");
        let at = b.transpose(ia);
        let g = b.mul(at, ia);
        b.output(out, g);
        let plan = build_plan(&b.build(), &inputs, &FixedSplit(split, 1), out).unwrap();
        let dag = instantiate(&plan, cluster.store()).unwrap();
        let before = BIG_ALLOCATIONS.load(Ordering::Relaxed);
        let report = cluster.run(&dag, ExecMode::Real).unwrap();
        (report, BIG_ALLOCATIONS.load(Ordering::Relaxed) - before)
    };
    run("G1");
    let (report, big) = run("G2");

    let want = a.transpose().matmul(&a).unwrap();
    let got = cluster.store().get_local("G2").unwrap();
    assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
    let mul_tasks: u64 = report
        .jobs
        .iter()
        .filter(|j| j.op_label == "mul")
        .map(|j| j.tasks.len() as u64)
        .sum();
    assert_eq!(
        report.jobs.len(),
        1,
        "rk spans the shared dimension: no add job"
    );
    assert_eq!(mul_tasks, 2);
    let multiplies = 2 * 2 * 2;
    eprintln!("{big} allocations >= 256 KiB: {multiplies} multiplies, {mul_tasks} mul tasks");
    assert!(
        big <= multiplies + mul_tasks,
        "{big} tile-sized allocations for {multiplies} products and {mul_tasks} task scratches"
    );
}
