//! CI bench smoke and regression gate: GEMM kernel timings (the packed
//! production path vs the retired blocked reference, n=128..1024), a
//! parallel GEMM end-to-end row, and one end-to-end Real-mode run
//! executed at 1 worker thread and at N, verifying the two runs are
//! bitwise-identical and that the parallel executor clears committed
//! speed thresholds.
//!
//! Emits `BENCH_gemm.json`, `BENCH_e2e.json` and `BENCH_spill.json` in
//! the working directory (machine-readable), plus `BENCH_trace.json` —
//! the sequential run's Chrome trace_event timeline, loadable in
//! Perfetto — and prints a human summary. Exit is non-zero if:
//!
//! * the packed GEMM at n=1024 falls below [`MIN_GEMM_GFLOPS`] *and*
//!   below [`MIN_GEMM_SPEEDUP`]x the in-process reference kernel, on a
//!   host whose dense kernel dispatched to an FMA SIMD clone (soft
//!   warning on generic hosts, where the floor is unattainable; the
//!   ratio fallback keeps ambient VM contention — which slows both
//!   kernels alike — from tripping the gate);
//! * the parallel run diverges bitwise from the sequential one (any host);
//! * the e2e speedup at [`E2E_THREADS`] threads falls below
//!   [`MIN_SPEEDUP`] on a host with at least [`E2E_THREADS`] cores;
//! * the speedup falls below [`OVERHEAD_FLOOR`] on any host — parallel
//!   execution must never be materially slower than sequential (the
//!   regression class this gate exists for: the pre-lookahead executor
//!   ran at 0.49x on a single-core host);
//! * the e2e phase accounting identity `compute + read + write +
//!   startup + overhead + idle = makespan` drifts (the phases come from
//!   the traced run's critical path, wall-clock-attributed — *not*
//!   slot-seconds summed across idle speculative workers, which once
//!   reported 12.2 s of "overhead" on a 0.84 s run);
//! * an out-of-core run (same Gram workload under a resident-tile budget
//!   far below its working set) diverges bitwise from the unbounded run,
//!   fails to actually spill, or exceeds [`MAX_SPILL_SLOWDOWN`]x the
//!   unbounded wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cumulon::cluster::instances::catalog;
use cumulon::cluster::{
    set_default_threads, Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig,
    Trace, TraceLog,
};
use cumulon::core::calibrate::{CostModel, OpCoefficients};
use cumulon::core::{InputDesc, Optimizer, ProgramBuilder, RecoveryConfig};
use cumulon::dfs::DfsConfig;
use cumulon::matrix::gen::Generator;
use cumulon::matrix::{DenseTile, LocalMatrix, MatrixMeta, SimdLevel};

const E2E_THREADS: usize = 4;
/// Committed single-core floor for the packed GEMM at n=1024, ≥3x the
/// 7.8 GF/s the retired blocked kernel managed on the same host class.
/// Enforced only where the microkernel dispatched to an FMA SIMD clone;
/// the generic clone (no fused multiply-add) can't reach it.
const MIN_GEMM_GFLOPS: f64 = 23.0;
/// Fallback gate when ambient contention (VM steal, noisy neighbors)
/// slows the whole host below [`MIN_GEMM_GFLOPS`]: the packed kernel
/// must still beat the in-process reference measurement — taken under
/// the same conditions, so the ratio is contention-invariant — by this
/// factor. Missing *both* is a genuine kernel regression.
const MIN_GEMM_SPEEDUP: f64 = 3.0;
/// Committed e2e speedup floor at `E2E_THREADS` threads, enforced only on
/// hosts with at least that many cores (wall-clock parallel speedup is
/// unattainable on fewer).
const MIN_SPEEDUP: f64 = 1.5;
/// Committed overhead floor on hosts with at least [`E2E_THREADS`]
/// cores: the parallel executor may never run materially slower than the
/// sequential one.
const OVERHEAD_FLOOR: f64 = 0.8;
/// Overhead floor when the host has fewer cores than [`E2E_THREADS`]
/// (threads time-slice one core). Looser than [`OVERHEAD_FLOOR`]: the
/// packed SIMD kernels are cache-resident, so context switches between
/// oversubscribed workers evict each other's panels and cost up to ~25%
/// against the sequential run — physics, not executor overhead. Still
/// tight enough to catch the 0.49x regression class this gate exists for.
const OVERSUBSCRIBED_FLOOR: f64 = 0.65;
const META: MatrixMeta = MatrixMeta {
    rows: 1536,
    cols: 1536,
    tile_size: 256,
};
/// Resident-tile budgets for the out-of-core smoke. The Gram run writes
/// 36 output tiles of 512 KiB (~18 MB through the spill plane): 2 MiB
/// holds four of them, 512 KiB exactly one — every write evicts.
const SPILL_BUDGETS: [u64; 2] = [2 << 20, 512 << 10];
/// Budgets for the spill-aware-scheduling gate, ~4x and ~16x below the
/// fan workload's ~8 MiB working set (the product plus three consumer
/// outputs of 2 MiB each).
const PREFETCH_BUDGETS: [u64; 2] = [2 << 20, 512 << 10];
/// A budgeted run pays host-side codec and disk work the unbounded run
/// skips; this bounds how much. Generous because CI walls are noisy and
/// the runs are sub-second, but still low enough to catch a spill path
/// that re-encodes or re-reads tiles quadratically.
const MAX_SPILL_SLOWDOWN: f64 = 6.0;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    gemm_smoke();
    e2e_smoke();
    spill_smoke();
}

/// Best-of-`reps` wall seconds for one `f(c, a, b)` call.
fn time_gemm(
    f: impl Fn(&mut DenseTile, &DenseTile, &DenseTile),
    a: &DenseTile,
    b: &DenseTile,
    reps: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut c = DenseTile::zeros(a.rows(), b.cols());
        let t0 = Instant::now();
        f(&mut c, a, b);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn gemm_smoke() {
    let simd = cumulon::matrix::simd_level();
    println!("dense microkernel dispatch: {}", simd.name());
    let mut json = String::from("[");
    let mut packed_1024_gflops = 0.0;
    let mut speedup_1024 = 0.0;
    for (i, n) in [128usize, 192, 256, 512, 1024].into_iter().enumerate() {
        let a = cumulon::matrix::gen::dense_uniform_tile(1, 0, 0, n, n, -1.0, 1.0);
        let b = cumulon::matrix::gen::dense_uniform_tile(2, 0, 0, n, n, -1.0, 1.0);
        // Best-of-reps: CI hosts are noisy and the floor gate below must
        // not trip on a scheduler hiccup.
        let reps = (512 / n).max(3);
        let flops = 2.0 * (n as f64).powi(3);
        // The production dispatcher (packed SIMD path at these sizes).
        let secs = time_gemm(
            |c, a, b| DenseTile::gemm_acc(c, a, b).unwrap(),
            &a,
            &b,
            reps,
        );
        let gflops = flops / 1e9 / secs;
        // The seed's blocked kernel, kept as the comparison baseline.
        let ref_secs = time_gemm(
            |c, a, b| DenseTile::gemm_acc_blocked(c, a, b).unwrap(),
            &a,
            &b,
            reps.min(3),
        );
        let ref_gflops = flops / 1e9 / ref_secs;
        if n == 1024 {
            packed_1024_gflops = gflops;
            speedup_1024 = ref_secs / secs;
        }
        println!(
            "gemm n={n}: packed {:.1}ms ({gflops:.2} GF/s), reference {:.1}ms ({ref_gflops:.2} GF/s)",
            secs * 1e3,
            ref_secs * 1e3
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"kernel\":\"gemm_packed\",\"n\":{n},\"simd\":\"{}\",\
             \"seconds\":{secs:.6},\"gflops\":{gflops:.3}}},\
             {{\"kernel\":\"gemm_blocked\",\"n\":{n},\
             \"seconds\":{ref_secs:.6},\"gflops\":{ref_gflops:.3}}}",
            simd.name()
        );
    }
    // Parallel-GEMM smoke: the same multiply driven through the cluster
    // executor with threads = 0 (all host cores), exercising the lookahead
    // pool end to end.
    let (secs, n) = gemm_parallel_e2e();
    let gflops = 2.0 * (n as f64).powi(3) / 1e9 / secs;
    println!(
        "gemm e2e n={n} threads=0: {:.1}ms ({gflops:.2} GF/s)",
        secs * 1e3
    );
    let _ = write!(
        json,
        ",{{\"kernel\":\"gemm_parallel_e2e\",\"n\":{n},\"threads\":0,\
         \"seconds\":{secs:.6},\"gflops\":{gflops:.3}}}"
    );
    json.push(']');
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    // Committed floor: the packed kernel must hold ≥3x the seed's rate at
    // n=1024 wherever the microkernel found an FMA SIMD clone to run.
    // When ambient contention drags the absolute number under the floor,
    // the contention-invariant speedup over the in-process reference
    // measurement must still hold — only missing both is a regression.
    if packed_1024_gflops < MIN_GEMM_GFLOPS {
        if simd == SimdLevel::Generic {
            println!(
                "warn: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s below \
                 {MIN_GEMM_GFLOPS} floor — not enforced on generic (no-FMA) hosts"
            );
        } else if speedup_1024 >= MIN_GEMM_SPEEDUP {
            println!(
                "warn: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s below the \
                 {MIN_GEMM_GFLOPS} floor, but {speedup_1024:.2}x the in-process \
                 reference — host contention, not a kernel regression"
            );
        } else {
            eprintln!(
                "GATE FAIL: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s \
                 (floor {MIN_GEMM_GFLOPS} on {} hosts) and only {speedup_1024:.2}x \
                 the in-process reference (floor {MIN_GEMM_SPEEDUP}x)",
                simd.name()
            );
            std::process::exit(1);
        }
    }
}

/// One Real-mode C = A x B at 1024^2 (4x4 tile grid) on all host cores.
/// Returns (wall seconds, n).
fn gemm_parallel_e2e() -> (f64, usize) {
    const N: usize = 1024;
    set_default_threads(0);
    let meta = MatrixMeta {
        rows: N,
        cols: N,
        tile_size: 256,
    };
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    let store = cluster.store();
    store
        .register_generated("A", meta, Generator::DenseGaussian { seed: 11 })
        .unwrap();
    store
        .register_generated("B", meta, Generator::DenseGaussian { seed: 13 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let bb = b.input("B");
    let c = b.mul(a, bb);
    b.output("C", c);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    for name in ["A", "B"] {
        inputs.insert(
            name.to_string(),
            InputDesc {
                meta,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );
    }
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    let t0 = Instant::now();
    opt.execute_on(&cluster, &program, &inputs, "gemm_par", ExecMode::Real)
        .unwrap();
    (t0.elapsed().as_secs_f64(), N)
}

/// Run fingerprint: the canonical [`RunReport::fingerprint`] (shared with
/// `cumulon check`) plus the bit pattern of every output's norm.
fn fingerprint(report: &RunReport, outputs: &[LocalMatrix]) -> String {
    let mut s = report.fingerprint();
    for m in outputs {
        let _ = writeln!(s, "out {:016x}", m.frob_norm().to_bits());
    }
    s
}

fn e2e_once(threads: usize) -> (f64, String, LocalMatrix, TraceLog) {
    set_default_threads(threads);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    cluster
        .store()
        .register_generated("A", META, Generator::DenseGaussian { seed: 7 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let g = b.mul(at, a);
    b.output("G", g);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "A".to_string(),
        InputDesc {
            meta: META,
            density: 1.0,
            sparse: false,
            generated: true,
        },
    );
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    // Traced at every thread count: the fingerprint equality below doubles
    // as a check that recording spans never perturbs results.
    let trace = Trace::enabled();
    let t0 = Instant::now();
    let report = opt
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "smoke",
            ExecMode::Real,
            SchedulerConfig::default(),
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &trace,
        )
        .unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let out = cluster.store().get_local("G").unwrap();
    let fp = fingerprint(&report, std::slice::from_ref(&out));
    (wall, fp, out, trace.snapshot().expect("trace enabled"))
}

fn e2e_smoke() {
    let cores = host_cores();
    // Two *paired* rounds of (sequential, parallel), gating on the best
    // per-round ratio: CI hosts see multi-second ambient contention
    // windows, and pairing keeps a window from slowing only one side of
    // the ratio (best-of-N per side, measured minutes apart, still
    // tripped the overhead gate on a noisy 1-core host). Each round also
    // re-asserts bitwise determinism against the first.
    let (mut seq_s, mut par_s, mut speedup) = (f64::INFINITY, f64::INFINITY, 0.0_f64);
    let mut kept: Option<(String, LocalMatrix, TraceLog, String, LocalMatrix)> = None;
    for _ in 0..2 {
        let (s_s, s_fp, s_out, s_log) = e2e_once(1);
        let (p_s, p_fp, p_out, _) = e2e_once(E2E_THREADS);
        speedup = speedup.max(s_s / p_s);
        seq_s = seq_s.min(s_s);
        par_s = par_s.min(p_s);
        match &kept {
            None => kept = Some((s_fp, s_out, s_log, p_fp, p_out)),
            Some((fp0, _, _, pfp0, _)) => {
                assert_eq!(fp0, &s_fp, "sequential e2e nondeterministic across rounds");
                assert_eq!(pfp0, &p_fp, "parallel e2e nondeterministic across rounds");
            }
        }
    }
    let (seq_fp, seq_out, seq_log, par_fp, par_out) = kept.expect("two rounds ran");
    let identical = seq_fp == par_fp && seq_out == par_out;
    println!(
        "e2e G=A'A {}x{} t{}: 1 thread {seq_s:.2}s, {E2E_THREADS} threads {par_s:.2}s \
         ({speedup:.2}x on {cores} core(s)), bitwise identical: {identical}",
        META.rows, META.cols, META.tile_size,
    );
    // The sequential run's timeline (deterministic span order at 1 thread).
    std::fs::write("BENCH_trace.json", seq_log.to_chrome_json()).expect("write BENCH_trace.json");
    // Phase attribution comes from the critical path, so the reported
    // seconds are wall-clock: phases + idle reproduce the makespan.
    // (`phase_totals()` sums slot-seconds across every worker — idle
    // speculative slots once inflated "overhead" to 14x the wall time.)
    // `phase_startup_s` is the fixed task-launch cost on the path, kept
    // out of `phase_overhead_s`: this one-wave plan's critical path is a
    // single task, so its constant ~2s launch once read as 66% executor
    // "overhead" on a 3.6s run.
    let cp = seq_log.critical_path();
    let accounting_drift = (cp.accounted_s() - cp.makespan_s).abs();
    let json = format!(
        "{{\"experiment\":\"e2e_gram_1536\",\"seq_seconds\":{seq_s:.4},\
         \"par_seconds\":{par_s:.4},\"threads\":{E2E_THREADS},\
         \"speedup\":{speedup:.3},\"host_cores\":{cores},\
         \"bitwise_identical\":{identical},\
         \"makespan_s\":{:.4},\
         \"phase_compute_s\":{:.4},\"phase_read_s\":{:.4},\
         \"phase_write_s\":{:.4},\"phase_startup_s\":{:.4},\
         \"phase_overhead_s\":{:.4},\"phase_idle_s\":{:.4}}}",
        cp.makespan_s,
        cp.phases.compute_s,
        cp.phases.read_s,
        cp.phases.write_s,
        cp.phases.startup_s,
        cp.phases.overhead_s,
        cp.idle_s,
    );
    std::fs::write("BENCH_e2e.json", json).expect("write BENCH_e2e.json");
    if accounting_drift > 1e-6 * cp.makespan_s.max(1.0) {
        eprintln!(
            "GATE FAIL: phase accounting identity broken: phases {:.6}s + idle {:.6}s \
             != makespan {:.6}s",
            cp.phases.total_s(),
            cp.idle_s,
            cp.makespan_s
        );
        std::process::exit(1);
    }
    if !identical {
        eprintln!("GATE FAIL: parallel run diverged from sequential run");
        eprintln!("--- sequential ---\n{seq_fp}\n--- parallel ---\n{par_fp}");
        std::process::exit(1);
    }
    let floor = if cores >= E2E_THREADS {
        OVERHEAD_FLOOR
    } else {
        OVERSUBSCRIBED_FLOOR
    };
    if speedup < floor {
        eprintln!(
            "GATE FAIL: parallel executor overhead: speedup {speedup:.3} \
             below floor {floor} (host has {cores} core(s))"
        );
        std::process::exit(1);
    }
    if cores >= E2E_THREADS && speedup < MIN_SPEEDUP {
        eprintln!(
            "GATE FAIL: e2e speedup {speedup:.3} below committed threshold \
             {MIN_SPEEDUP} at {E2E_THREADS} threads on {cores} cores"
        );
        std::process::exit(1);
    }
}

/// One Gram run at `E2E_THREADS` worker threads under a resident-tile
/// budget (0 = unbounded). `get_local` at the end drags every spilled
/// output tile back through the blob store, so the wall time prices the
/// full evict/readmit round trip. Returns (wall seconds, fingerprint,
/// spill counters).
fn spill_once(budget: u64) -> (f64, String, Option<cumulon::dfs::SpillStats>) {
    set_default_threads(E2E_THREADS);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    if budget > 0 {
        cluster
            .store()
            .set_memory_budget(&cumulon::dfs::SpillConfig::budgeted(budget))
            .unwrap();
    }
    cluster
        .store()
        .register_generated("A", META, Generator::DenseGaussian { seed: 7 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let g = b.mul(at, a);
    b.output("G", g);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "A".to_string(),
        InputDesc {
            meta: META,
            density: 1.0,
            sparse: false,
            generated: true,
        },
    );
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    let t0 = Instant::now();
    let report = opt
        .execute_on(&cluster, &program, &inputs, "spill", ExecMode::Real)
        .unwrap();
    let out = cluster.store().get_local("G").unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let fp = fingerprint(&report, std::slice::from_ref(&out));
    (wall, fp, cluster.store().dfs().spill_stats())
}

/// Out-of-core gate: the same Gram workload under budgets ~9x and ~36x
/// below its working set must reproduce the unbounded run bitwise (the
/// spill plane costs zero *simulated* time by construction), must
/// actually evict (a zero counter would make the gate vacuous), and may
/// not blow the wall-clock slowdown bound.
fn spill_smoke() {
    let (base_s, base_fp, base_stats) = spill_once(0);
    assert!(
        base_stats.is_none(),
        "no spill plane expected without a budget"
    );
    let mut rows = String::new();
    let mut failed = false;
    for (i, budget) in SPILL_BUDGETS.into_iter().enumerate() {
        let (wall, fp, stats) = spill_once(budget);
        let stats = stats.expect("budgeted run installs a spill plane");
        let identical = fp == base_fp;
        let slowdown = wall / base_s;
        let ratio = stats.blob.compression_ratio();
        println!(
            "spill budget {} KiB: {wall:.2}s ({slowdown:.2}x unbounded {base_s:.2}s), \
             {} eviction(s), {} readmission(s), {} B spilled ({ratio:.2}x compression), \
             {} B read back, bitwise identical: {identical}",
            budget >> 10,
            stats.evictions,
            stats.readmissions,
            stats.spilled_bytes_total,
            stats.readback_bytes_total,
        );
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "{{\"budget_bytes\":{budget},\"wall_seconds\":{wall:.4},\
             \"slowdown\":{slowdown:.3},\"bitwise_identical\":{identical},\
             \"evictions\":{},\"readmissions\":{},\"spilled_bytes\":{},\
             \"readback_bytes\":{},\"readback_bytes_avoided\":{},\
             \"compression_ratio\":{ratio:.4},\
             \"blob_segments\":{}}}",
            stats.evictions,
            stats.readmissions,
            stats.spilled_bytes_total,
            stats.readback_bytes_total,
            stats.readback_bytes_avoided,
            stats.blob.segments,
        );
        if !identical {
            eprintln!("GATE FAIL: {budget} B budget run diverged from unbounded run");
            failed = true;
        }
        if stats.evictions == 0 || stats.spilled_bytes_total == 0 {
            eprintln!(
                "GATE FAIL: {budget} B budget never spilled \
                 ({} evictions, {} B) — the gate is vacuous",
                stats.evictions, stats.spilled_bytes_total
            );
            failed = true;
        }
        if slowdown > MAX_SPILL_SLOWDOWN {
            eprintln!(
                "GATE FAIL: {budget} B budget ran {slowdown:.2}x the unbounded wall \
                 (bound {MAX_SPILL_SLOWDOWN}x)"
            );
            failed = true;
        }
    }
    let (prefetch_json, prefetch_failed) = prefetch_smoke();
    let json = format!(
        "{{\"experiment\":\"spill_gram_1536\",\"threads\":{E2E_THREADS},\
         \"unbounded_seconds\":{base_s:.4},\"runs\":[{rows}],\
         \"prefetch\":{prefetch_json}}}"
    );
    std::fs::write("BENCH_spill.json", json).expect("write BENCH_spill.json");
    if failed || prefetch_failed {
        std::process::exit(1);
    }
}

/// One fan-out run (GEMM feeding three element-wise consumers of the
/// product) at `E2E_THREADS` threads under a resident-tile budget, with
/// spill-aware scheduling at `depth` (0 = off). Spill counters are
/// snapshotted *before* the result readback: `get_local` drags spilled
/// tiles back synchronously no matter what the scheduler did, so only
/// in-run traffic is comparable. The fingerprint covers the readback
/// too (re-admission correctness).
fn prefetch_once(budget: u64, depth: usize) -> (String, cumulon::dfs::SpillStats) {
    set_default_threads(E2E_THREADS);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    cluster
        .store()
        .set_memory_budget(&cumulon::dfs::SpillConfig::budgeted(budget))
        .unwrap();
    let meta = MatrixMeta {
        rows: 512,
        cols: 512,
        tile_size: 64,
    };
    let mut inputs = BTreeMap::new();
    for (name, seed) in [("A", 3), ("B", 5)] {
        cluster
            .store()
            .register_generated(name, meta, Generator::DenseGaussian { seed })
            .unwrap();
        inputs.insert(
            name.to_string(),
            InputDesc {
                meta,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );
    }
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let bb = b.input("B");
    let c = b.mul(a, bb);
    let p = b.add(c, a);
    b.output("P", p);
    let q = b.sub(c, bb);
    b.output("Q", q);
    let r = b.scale(c, 0.5);
    b.output("R", r);
    let program = b.build();
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    let config = SchedulerConfig::default()
        .with_threads(E2E_THREADS)
        .with_prefetch(depth);
    let report = opt
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "prefetch",
            ExecMode::Real,
            config,
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &Trace::disabled(),
        )
        .unwrap();
    let stats = cluster
        .store()
        .dfs()
        .spill_stats()
        .expect("budgeted run installs a spill plane");
    let out = cluster.store().get_local("P").unwrap();
    let fp = fingerprint(&report, std::slice::from_ref(&out));
    (fp, stats)
}

/// Spill-aware scheduling gate: the fan workload with prefetch on must
/// reproduce the prefetch-off run bitwise, must actually overlap
/// readbacks (zero avoided bytes would make the gate vacuous), and at
/// the friendlier budget must cut synchronous readbacks by >= 30%. The
/// tighter budget is report-only: with a resident set this small the
/// prefetcher's byte cap throttles it to a couple of tiles per fill,
/// and how much that saves is workload noise, not a commitment.
fn prefetch_smoke() -> (String, bool) {
    const DEPTH: usize = 16;
    const MIN_REDUCTION: f64 = 0.30;
    let mut rows = String::new();
    let mut failed = false;
    for (i, budget) in PREFETCH_BUDGETS.into_iter().enumerate() {
        let (fp_off, off) = prefetch_once(budget, 0);
        let (fp_on, on) = prefetch_once(budget, DEPTH);
        let identical = fp_on == fp_off;
        let sync_on = on.readback_bytes_total - on.readback_bytes_avoided;
        let reduction = 1.0 - sync_on as f64 / off.readback_bytes_total.max(1) as f64;
        println!(
            "prefetch budget {} KiB (depth {DEPTH}): {} tile(s) readmitted ahead of demand, \
             {} B sync readback vs {} B without prefetch ({:.0}% reduction), \
             bitwise identical: {identical}",
            budget >> 10,
            on.prefetched_files,
            sync_on,
            off.readback_bytes_total,
            100.0 * reduction,
        );
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "{{\"budget_bytes\":{budget},\"bitwise_identical\":{identical},\
             \"prefetched_files\":{},\"readback_bytes_avoided\":{},\
             \"sync_readback_bytes\":{sync_on},\"readback_bytes_off\":{},\
             \"sync_reduction\":{reduction:.4}}}",
            on.prefetched_files, on.readback_bytes_avoided, off.readback_bytes_total,
        );
        if !identical {
            eprintln!("GATE FAIL: {budget} B budget prefetch run diverged from prefetch-off run");
            failed = true;
        }
        if on.prefetched_files == 0 || on.readback_bytes_avoided == 0 {
            eprintln!(
                "GATE FAIL: {budget} B budget never prefetched \
                 ({} files, {} B avoided) — the gate is vacuous",
                on.prefetched_files, on.readback_bytes_avoided
            );
            failed = true;
        }
        if i == 0 && reduction < MIN_REDUCTION {
            eprintln!(
                "GATE FAIL: {budget} B budget cut sync readbacks {:.0}% \
                 (committed floor {:.0}%)",
                100.0 * reduction,
                100.0 * MIN_REDUCTION
            );
            failed = true;
        }
    }
    (
        format!(
            "{{\"experiment\":\"prefetch_fan_512\",\"threads\":{E2E_THREADS},\
             \"depth\":{DEPTH},\"runs\":[{rows}]}}"
        ),
        failed,
    )
}
