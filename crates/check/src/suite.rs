//! The invariant suite: a small workload set swept through the
//! configuration lattice, with every global identity machine-checked.
//!
//! ## The lattice
//!
//! Three workloads (a multiply chain, a Gram matrix, and an iterative
//! power method) each run through the *observational* configuration axes —
//! axes that may change how a run is executed or measured but must never
//! change what it computes:
//!
//! * worker threads: 1 vs. N (deterministic parallel executor);
//! * memory budget: unbounded vs. a budget tight enough that the
//!   out-of-core plane must continuously spill tiles to the blob store;
//! * tracing: off vs. on (spans are observational by design);
//! * billing policy: hour-quantized vs. per-second (pricing only);
//! * faults: a seeded [`FailurePlan`] plus lineage recovery vs. a clean
//!   run;
//! * service concurrency: the direct (in-process, serial) pipeline vs.
//!   N concurrent tenants submitting the same program through the
//!   `cumulon serve` admission path and its shared speculation pool.
//!
//! ## The invariants
//!
//! * `result-identity` — every lattice point reproduces the baseline
//!   bitwise: identical [`RunReport::fingerprint`] and identical output
//!   bits.
//! * `reference-conformance` — the distributed result matches a naive
//!   untiled reference to near machine precision (summation order
//!   differs, so this one is a tight tolerance, not bitwise).
//! * `byte-conservation` — after every run, namenode metadata and
//!   datanode byte counters agree exactly, block for block, node for
//!   node (checked at every lattice point, including after node kills).
//! * `billing-identity` — every report's `billed_hours`/`cost_dollars`
//!   equal the billing functions applied to its makespan, bitwise, and
//!   `cluster_cost == nodes × price × billed_hours` for every policy.
//! * `trace-accounting` — the critical-path phase breakdown plus idle
//!   time accounts for the full makespan.
//! * `recovery-idempotence` — a run with injected task faults and a node
//!   kill, recovered via lineage, reproduces the fault-free output bits;
//!   the check also demands the faults actually fired (a clean fault
//!   counter would make the invariant vacuous).
//! * `revocation-survivability` — spot revocations swept along their own
//!   axis (single node with no warning / bulk half-fleet with a warning
//!   window, at 1 and N worker threads) must leave the output bits equal
//!   to the fault-free baseline, and the fault counters must show the
//!   revocation actually claimed nodes.
//! * `estimate-envelope` — the closed-form wave model stays within a
//!   sigma-scaled envelope of the Monte-Carlo list-scheduling estimate,
//!   and matches it exactly at `sigma = 0`.
//! * `search-grid-coverage` — deployment search candidate generation
//!   covers exactly the instance × slots × nodes cross product, with
//!   `max_nodes` always included even under non-dividing strides; and
//!   `optimize`, which skips grid points, returns the row an exhaustive
//!   sweep ranks first under either billing policy.
//! * `spill-transparency` — a run under a memory budget tight enough to
//!   force continuous eviction reproduces the unbounded baseline's
//!   fingerprint and output bits (so billing, receipts and results are
//!   untouched by the out-of-core plane), the spill ledger conserves
//!   bytes ([`cumulon_dfs::Dfs::spill_conserved`]), and the budget
//!   demonstrably evicted tiles (a zero eviction counter would make the
//!   check vacuous).
//! * `spill-schedule-transparency` — frontier prefetch on
//!   ([`SchedulerConfig::with_prefetch`]) vs off, on the scheduler's one
//!   wave loop at the same tight budget: the prefetching arm reproduces
//!   its prefetch-off twin's fingerprint and output bits exactly, and the
//!   suite as a whole must prefetch at least one tile (zero prefetches
//!   would make the check vacuous).
//! * `serve-isolation` — N concurrent tenants racing the same program
//!   through the multi-tenant service (admission, quotas, the bounded
//!   priority queue, the process-wide shared speculation pool) each get
//!   a [`RunReport::fingerprint`] bitwise-identical to the serial,
//!   private-pool direct pipeline, at scheduler threads 1 and N —
//!   multi-tenancy is observational, never computational.
//! * `kernel-conformance` — the optimized tile kernels match their
//!   reference paths: the packed SIMD GEMM is epsilon-bounded against
//!   the naive reference (its summation association and FMA contraction
//!   differ), the optimized sparse kernels (`spmm_acc`, `gemm_ds_acc`)
//!   are bitwise-identical to theirs (per-element operation order is
//!   preserved), and intra-kernel threading is bitwise-identical at any
//!   thread count.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use cumulon_cluster::billing::{billed_hours, cluster_cost, BillingPolicy};
use cumulon_cluster::{
    Cluster, ClusterSpec, ExecMode, FailurePlan, Revocation, RunReport, SchedulerConfig, Trace,
    TraceLog,
};
use cumulon_core::calibrate::idealized_cost_model;
use cumulon_core::error::CoreError;
use cumulon_core::estimate::{job_time_mc, job_time_s};
use cumulon_core::expr::{InputDesc, ProgramBuilder};
use cumulon_core::recovery::RecoveryConfig;
use cumulon_core::{
    Constraint, DeploymentPlan, DeploymentSearch, Optimizer, Program, Result, SearchSpace,
};
use cumulon_dfs::{SpillConfig, SpillStats, StorageAccounting};
use cumulon_matrix::gen::Generator;
use cumulon_matrix::{reference, MatrixMeta};
use cumulon_workloads::chains::MulChain;
use cumulon_workloads::power::PowerIteration;
use cumulon_workloads::Workload;

use crate::report::CheckReport;

/// Checker configuration.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Run the reduced lattice (fewer points, fewer Monte-Carlo trials) —
    /// the CI tier-1 budget. The invariants themselves are unchanged.
    pub quick: bool,
}

/// Runs the full invariant suite and returns the structured report.
///
/// A violated invariant is *recorded*, not returned as an error; `Err` is
/// reserved for the checker itself failing to run (which should never
/// happen and is itself reported as a failed `run-completes` outcome
/// where a specific configuration is at fault).
pub fn run_checks(opts: &CheckOptions) -> Result<CheckReport> {
    let mut report = CheckReport {
        quick: opts.quick,
        ..Default::default()
    };
    check_billing_function(&mut report);
    check_estimate_envelope(opts, &mut report);
    check_search_grid(&mut report);
    check_kernel_conformance(&mut report);
    check_serve_isolation(opts, &mut report);
    let mut prefetched_total = 0u64;
    for case in suite() {
        prefetched_total += check_case(&case, opts, &mut report);
    }
    // Non-vacuity for spill-aware scheduling is a *suite* property, not a
    // per-case one: workloads whose eviction churn is entirely intra-wave
    // (output writes evicting the very inputs the same wave still reads)
    // legitimately present an empty frontier at every wave boundary, so a
    // wave-boundary prefetch correctly stages nothing there. What must
    // never happen is the machinery staying idle across the whole suite.
    report.record(
        "spill-schedule-transparency",
        "suite aggregate".to_string(),
        prefetched_total > 0,
        format!(
            "{prefetched_total} tile(s) prefetched across all cases \
             (zero suite-wide would mean the frontier never fired)"
        ),
    );
    Ok(report)
}

/// The cluster every lattice point provisions: homogeneous m1.large × 4
/// with 2 slots per node (big enough for real waves, small enough that
/// the whole lattice runs in CI).
fn spec() -> ClusterSpec {
    ClusterSpec::named("m1.large", 4, 2).expect("m1.large is in the catalog")
}

/// The N of the `threads ∈ {1, N}` axis: enough to exercise the parallel
/// executor even on small CI hosts, bounded so the lattice stays cheap.
fn threads_n() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4))
}

// ---------------------------------------------------------------------------
// Workload cases
// ---------------------------------------------------------------------------

/// One workload in the suite, with the final output to compare and a
/// naive-reference computation over the dense input snapshots.
struct Case {
    name: &'static str,
    workload: Box<dyn Workload>,
    /// Iterations to drive through the Workload trait.
    iters: usize,
    /// Name of the output matrix whose bits define the run's result.
    output: &'static str,
    /// Input matrices snapshotted (dense) for the reference computation.
    ref_inputs: &'static [&'static str],
    /// Naive untiled reference over those snapshots.
    reference: fn(&BTreeMap<String, Vec<f64>>) -> Vec<f64>,
}

fn suite() -> Vec<Case> {
    vec![
        Case {
            name: "chain",
            workload: Box::new(MulChain::square(48, 3, 16, 11)),
            iters: 1,
            output: "CHAIN",
            ref_inputs: &["M0", "M1", "M2"],
            reference: |m| {
                let p = reference::matmul(&m["M0"], &m["M1"], 48, 48, 48);
                reference::matmul(&p, &m["M2"], 48, 48, 48)
            },
        },
        Case {
            name: "gram",
            workload: Box::new(Gram {
                meta: MatrixMeta::new(96, 48, 16),
                seed: 23,
            }),
            iters: 1,
            output: "G",
            ref_inputs: &["A"],
            reference: |m| {
                let at = reference::transpose(&m["A"], 96, 48);
                reference::matmul(&at, &m["A"], 48, 96, 48)
            },
        },
        Case {
            name: "power",
            workload: Box::new(PowerIteration {
                n: 60,
                tile_size: 15,
                density: 0.3,
                seed: 21,
            }),
            iters: 2,
            output: "x_2",
            ref_inputs: &["P", "x_0"],
            reference: |m| {
                let y1 = reference::matmul(&m["P"], &m["x_0"], 60, 60, 1);
                reference::matmul(&m["P"], &y1, 60, 60, 1)
            },
        },
    ]
}

/// Gram-matrix workload `G = AᵀA` (the workloads crate has no standalone
/// Gram case; regression uses it fused into the normal equations).
struct Gram {
    meta: MatrixMeta,
    seed: u64,
}

impl Workload for Gram {
    fn name(&self) -> &'static str {
        "gram"
    }

    fn inputs(&self, _iter: usize) -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("A".into(), InputDesc::dense(self.meta).generated());
        m
    }

    fn setup(&self, store: &cumulon_dfs::TileStore) -> Result<()> {
        store
            .register_generated("A", self.meta, Generator::DenseGaussian { seed: self.seed })
            .map_err(CoreError::from)?;
        Ok(())
    }

    fn program(&self, _iter: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let at = b.transpose(a);
        let g = b.mul(at, a);
        b.output("G", g);
        b.build()
    }
}

// ---------------------------------------------------------------------------
// Lattice execution
// ---------------------------------------------------------------------------

/// One point on the observational configuration lattice.
#[derive(Debug, Clone, Copy)]
struct LatticePoint {
    threads: usize,
    trace: bool,
    billing: BillingPolicy,
    /// Resident-tile budget in bytes; 0 leaves the out-of-core plane off.
    memory_budget: u64,
    /// Frontier prefetch depth ([`SchedulerConfig::with_prefetch`]); 0 is off.
    prefetch: usize,
}

const BASELINE: LatticePoint = LatticePoint {
    threads: 1,
    trace: false,
    billing: BillingPolicy::HourlyCeil,
    memory_budget: 0,
    prefetch: 0,
};

/// The spill arms' budget: tight enough that even the power iteration's
/// 15×1 vector tiles (~160 wire bytes each) overflow it; the 2 KiB dense
/// tiles of the chain and Gram cases evict on every single write.
const TIGHT: u64 = 512;

impl LatticePoint {
    /// `tiles` names the one payload plane; it stays in the label so the
    /// labels match those of earlier lattices. The prefetch depth is left
    /// out: a prefetching arm shares its label with its prefetch-off twin.
    fn label(&self, case: &str) -> String {
        format!(
            "{case}/t{}/tiles/{}{}{}",
            self.threads,
            if self.trace { "trace" } else { "notrace" },
            if self.billing == BillingPolicy::PerSecond {
                "/sec"
            } else {
                ""
            },
            if self.memory_budget > 0 { "/spill" } else { "" },
        )
    }
}

/// Everything one lattice run produces that an invariant looks at.
#[derive(Clone)]
struct RunArtifacts {
    /// Concatenated per-iteration [`RunReport::fingerprint`]s.
    fingerprint: String,
    /// Bit pattern of the final output matrix, element by element.
    output_bits: Vec<u64>,
    /// The final output, dense row-major (for reference conformance).
    output_dense: Vec<f64>,
    /// Dense snapshots of the reference inputs.
    ref_inputs: BTreeMap<String, Vec<f64>>,
    /// Per-iteration reports.
    reports: Vec<RunReport>,
    /// Per-iteration trace logs (empty when tracing is off).
    traces: Vec<TraceLog>,
    /// DFS ledger snapshot after the last iteration.
    accounting: StorageAccounting,
    /// Spill-plane counters after the last iteration (budgeted runs only).
    spill: Option<SpillStats>,
    /// [`cumulon_dfs::Dfs::spill_conserved`] after the last iteration.
    spill_conserved: bool,
}

/// Executes one case at one lattice point on a fresh cluster.
fn run_case(case: &Case, point: LatticePoint, failures: &FailurePlan) -> Result<RunArtifacts> {
    let mut cluster = Cluster::provision(spec()).map_err(CoreError::from)?;
    cluster.set_billing(point.billing);
    if point.memory_budget > 0 {
        cluster
            .store()
            .set_memory_budget(&SpillConfig::budgeted(point.memory_budget))
            .map_err(CoreError::from)?;
    }
    case.workload.setup(cluster.store())?;
    // The idealized fitted model (same construction as the bench harness).
    let opt = Optimizer::new(idealized_cost_model());
    let config = SchedulerConfig::default()
        .with_threads(point.threads)
        .with_prefetch(point.prefetch);
    let mut fingerprint = String::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    let no_faults = FailurePlan::default();
    for iter in 0..case.iters {
        // Faults are injected into iteration 0 only, so iterative cases
        // also prove that recovery leaves later iterations undisturbed.
        let plan = if iter == 0 { failures } else { &no_faults };
        // A fresh handle per iteration keeps each iteration's timeline
        // self-contained (simulated time restarts at 0 every run).
        let trace = if point.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let report = opt.execute_on_traced(
            &cluster,
            &case.workload.program(iter),
            &case.workload.inputs(iter),
            &format!("chk{iter}"),
            ExecMode::Real,
            config,
            plan,
            RecoveryConfig::default(),
            &trace,
        )?;
        fingerprint.push_str(&report.fingerprint());
        reports.push(report);
        if let Some(log) = trace.snapshot() {
            traces.push(log);
        }
    }
    let dense = |name: &str| -> Result<Vec<f64>> {
        cluster
            .store()
            .get_local(name)
            .map_err(CoreError::from)?
            .to_dense_vec()
            .map_err(|e| CoreError::Exec(e.to_string()))
    };
    let output_dense = dense(case.output)?;
    let mut ref_inputs = BTreeMap::new();
    for &name in case.ref_inputs {
        ref_inputs.insert(name.to_string(), dense(name)?);
    }
    Ok(RunArtifacts {
        fingerprint,
        output_bits: output_dense.iter().map(|v| v.to_bits()).collect(),
        output_dense,
        ref_inputs,
        reports,
        traces,
        accounting: cluster.store().dfs().storage_accounting(),
        spill: cluster.store().dfs().spill_stats(),
        spill_conserved: cluster.store().dfs().spill_conserved(),
    })
}

// ---------------------------------------------------------------------------
// Observational arms
// ---------------------------------------------------------------------------

/// One row of the arm table: a lattice point and failure plan that flip
/// one observational axis, the run it must reproduce and how, and the
/// counter that proves the axis fired.
struct Arm {
    invariant: &'static str,
    /// The outcome's label; `None` labels it by its point.
    label: Option<String>,
    point: LatticePoint,
    failures: FailurePlan,
    /// What the axis did, leading the counters in the detail.
    setting: String,
    /// The point whose run is the reference; `None` is the case's baseline.
    twin: Option<LatticePoint>,
    matches: Match,
    fired: Fired,
}

/// What an arm must reproduce of its reference besides the output bits:
/// the fingerprint, the makespans (the fingerprint embeds the bill), or
/// nothing more (faults change receipts and time).
enum Match {
    Fingerprint,
    Makespans,
    Bits,
}

/// The counter that proves an arm's axis fired, so the arm is not vacuous:
/// none (threads, tracing, billing), unclean fault counters, revocations
/// claiming exactly this many nodes, or evictions under a conserving ledger.
enum Fired {
    Always,
    Faults,
    RevokedNodes(u64),
    Evictions,
}

/// Every observational arm of one case, one row per setting in execution
/// order; the rows marked `true` form the quick lattice. Fault and
/// revocation times scale with the baseline's first makespan.
fn arms(case: &Case, opts: &CheckOptions, base: &RunArtifacts) -> Vec<Arm> {
    use {Fired::*, Match::*};
    let n = threads_n();
    let at_s = 0.4 * base.reports[0].makespan_s;
    // A row at the baseline with `threads` workers; the rows change the rest.
    let arm = |invariant, threads, matches, fired| Arm {
        invariant,
        label: None,
        point: LatticePoint {
            threads,
            ..BASELINE
        },
        failures: FailurePlan::default(),
        setting: String::new(),
        twin: None,
        matches,
        fired,
    };
    let identity = |threads, trace| {
        let mut arm = arm("result-identity", threads, Fingerprint, Always);
        arm.point.trace = trace;
        arm
    };
    let mut per_second = arm("result-identity", 1, Makespans, Always);
    per_second.point.billing = BillingPolicy::PerSecond;
    let mut recovery = arm("recovery-idempotence", 1, Bits, Faults);
    recovery.label = Some(format!("{}/faults", BASELINE.label(case.name)));
    recovery.setting = format!("node 3 killed at {at_s:.3}s + task faults (p=0.15)");
    recovery.failures.task_failure_prob = 0.15;
    recovery.failures.node_failures = vec![(at_s, 3)];
    recovery.failures.seed = 9;
    // `lead` is the warning window as a share of `at_s`.
    let revoke = |tag, nodes: &[u32], lead: f64, threads| {
        let fired = RevokedNodes(nodes.len() as u64);
        let mut arm = arm("revocation-survivability", threads, Bits, fired);
        let (nodes, warning_lead_s) = (nodes.to_vec(), lead * at_s);
        arm.label = Some(format!("{}/t{threads}/revoke-{tag}", case.name));
        arm.setting = format!("nodes {nodes:?} revoked at {at_s:.3}s (lead {warning_lead_s:.3}s)");
        arm.failures.revocations = vec![Revocation {
            at_s,
            nodes,
            warning_lead_s,
        }];
        arm
    };
    // The tight budget alone, or prefetching `prefetch` deep against its
    // prefetch-off twin.
    let spill = |threads, prefetch| {
        let mut arm = arm("spill-transparency", threads, Fingerprint, Evictions);
        arm.point.memory_budget = TIGHT;
        arm.setting = format!("{TIGHT} B budget");
        if prefetch > 0 {
            arm.invariant = "spill-schedule-transparency";
            arm.setting = format!("{TIGHT} B budget, depth {prefetch}");
            arm.twin = Some(arm.point);
            arm.point.prefetch = prefetch;
        }
        arm
    };
    let table = [
        (false, identity(1, true)),
        (false, identity(n, false)),
        (true, identity(n, true)),
        (true, per_second),
        (true, recovery),
        // One node gone with no warning (pure lineage recovery), and half
        // the fleet in one correlated event with a warning the drain uses.
        (true, revoke("single", &[3], 0.0, 1)),
        (false, revoke("single", &[3], 0.0, n)),
        (false, revoke("bulk", &[2, 3], 0.5, 1)),
        (true, revoke("bulk", &[2, 3], 0.5, n)),
        (false, spill(1, 0)),
        (true, spill(n, 0)),
        (true, spill(1, 4)),
        (false, spill(n, 4)),
    ];
    let rows = table.into_iter().filter(|&(quick, _)| quick || !opts.quick);
    rows.map(|(_, arm)| arm).collect()
}

/// Runs one case's baseline and then every arm of [`arms`], recording the
/// per-run invariants of each run and each arm's [`verdict`]. Returns the
/// tiles the arms prefetched, so the caller can assert suite-wide
/// non-vacuity.
fn check_case(case: &Case, opts: &CheckOptions, report: &mut CheckReport) -> u64 {
    let base_label = BASELINE.label(case.name);
    let base = match run_case(case, BASELINE, &FailurePlan::default()) {
        Ok(a) => a,
        Err(e) => {
            report.record(
                "run-completes",
                base_label,
                false,
                format!("baseline run failed: {e}"),
            );
            return 0;
        }
    };
    per_run_invariants(case, BASELINE, &base, report);
    check_reference_conformance(case, &base, report);

    let mut prefetched = 0;
    for arm in arms(case, opts, &base) {
        let label = arm.label.clone().unwrap_or(arm.point.label(case.name));
        let run = |point| run_case(case, point, &arm.failures);
        // A twin runs first and records no per-run invariants.
        let twin = arm.twin.map(run).transpose();
        match twin.and_then(|twin| Ok((twin, run(arm.point)?))) {
            Ok((twin, art)) => {
                per_run_invariants(case, arm.point, &art, report);
                prefetched += art.spill.map_or(0, |s| s.prefetched_files);
                let reference = twin.as_ref().map_or((base_label.as_str(), &base), |t| {
                    ("the prefetch-off twin", t)
                });
                let (ok, detail) = verdict(&arm, reference, &art);
                report.record(arm.invariant, label, ok, detail);
            }
            // Surviving is what a fault or budget arm checks; an identity
            // arm's failed run is a run that did not complete.
            Err(e) => {
                let invariant = match arm.invariant {
                    "result-identity" => "run-completes",
                    other => other,
                };
                report.record(invariant, label, false, format!("run failed: {e}"));
            }
        }
    }
    prefetched
}

/// Judges one arm's run against its `(name, artifacts)` reference: the
/// run must reproduce what `arm.matches` names and its axis must have
/// fired. The detail is the evidence either way: the setting and the
/// counters, then the match or the first divergence.
fn verdict(arm: &Arm, (name, base): (&str, &RunArtifacts), art: &RunArtifacts) -> (bool, String) {
    let setting = &arm.setting;
    let sum = |count: fn(&RunReport) -> u64| art.reports.iter().map(count).sum::<u64>();
    let (fired, evidence) = match arm.fired {
        Fired::Always => (true, String::new()),
        Fired::Faults => {
            let fired = art.reports.iter().any(|r| !r.faults.is_clean());
            let retries = sum(|r| r.faults.retries);
            let text = format!("{setting}: faults fired: {fired} ({retries} retries); ");
            (fired, text)
        }
        Fired::RevokedNodes(want) => {
            let events = sum(|r| r.faults.revocations);
            let nodes = sum(|r| r.faults.revoked_nodes);
            let text = format!("{setting}: {events} revocation(s) claimed {nodes} node(s); ");
            (events >= 1 && nodes == want, text)
        }
        Fired::Evictions => {
            let s = art.spill.unwrap_or_default();
            let (e, r, p) = (s.evictions, s.readmissions, s.prefetched_files);
            let (avoided, conserved) = (s.readback_bytes_avoided, art.spill_conserved);
            let text = format!(
                "{setting}: {e} eviction(s), {r} re-admission(s), {p} prefetch(es), {avoided} B \
                 readback avoided; ledger conserved: {conserved}; "
            );
            (e > 0 && conserved, text)
        }
    };
    let makespans = |a: &RunArtifacts| -> Vec<u64> {
        a.reports.iter().map(|r| r.makespan_s.to_bits()).collect()
    };
    let (want, got, n) = (makespans(base), makespans(art), art.output_bits.len());
    let equal = |what| format!("{what}{n} output elements bitwise equal to {name}");
    let divergence = match arm.matches {
        Match::Fingerprint if art.fingerprint != base.fingerprint => {
            diverged_detail(name, base, art)
        }
        Match::Makespans if got != want => {
            format!("makespan bits diverge from {name}: {want:x?} vs {got:x?}")
        }
        // What must match agrees but the bits differ: name the element.
        _ if art.output_bits != base.output_bits => {
            let mut bits_only = art.clone();
            bits_only.fingerprint.clone_from(&base.fingerprint);
            diverged_detail(name, base, &bits_only)
        }
        Match::Fingerprint => return (fired, evidence + &equal("fingerprint and ")),
        Match::Makespans => return (fired, evidence + &equal("makespans and ")),
        Match::Bits => return (fired, evidence + &equal("")),
    };
    (false, evidence + &divergence)
}

/// Invariants every run must satisfy regardless of configuration:
/// DFS byte conservation, billing identity, trace-phase accounting.
fn per_run_invariants(
    case: &Case,
    point: LatticePoint,
    art: &RunArtifacts,
    report: &mut CheckReport,
) {
    let label = point.label(case.name);
    let a = &art.accounting;
    report.record(
        "byte-conservation",
        label.clone(),
        a.is_conserved(),
        format!(
            "namenode {} replica bytes ({} replicas) vs datanodes {} bytes \
             ({} blocks); per-node match: {}",
            a.namenode_replica_bytes,
            a.namenode_replica_count,
            a.datanode_bytes,
            a.datanode_block_count,
            a.per_node.iter().all(|&(want, got)| want == got),
        ),
    );

    let s = spec();
    let mut billing_ok = true;
    let mut billing_detail = String::new();
    for (i, r) in art.reports.iter().enumerate() {
        let hours = billed_hours(point.billing, r.makespan_s);
        let cost = cluster_cost(
            point.billing,
            s.nodes,
            s.instance.price_per_hour,
            r.makespan_s,
        );
        let product = s.nodes as f64 * s.instance.price_per_hour * hours;
        let ok = r.billed_hours.to_bits() == hours.to_bits()
            && r.cost_dollars.to_bits() == cost.to_bits()
            && cost.to_bits() == product.to_bits();
        if !ok {
            billing_ok = false;
            let _ = write!(
                billing_detail,
                "iter {i}: report ({:.6}h, ${:.6}) vs billing fns ({hours:.6}h, ${cost:.6}, \
                 n×p×h ${product:.6}); ",
                r.billed_hours, r.cost_dollars,
            );
        }
    }
    if billing_ok {
        billing_detail = format!(
            "{} iteration(s): billed_hours, cluster_cost and nodes×price×hours bitwise equal",
            art.reports.len()
        );
    }
    report.record(
        "billing-identity",
        label.clone(),
        billing_ok,
        billing_detail,
    );

    if point.trace {
        let mut ok = true;
        let mut detail = String::new();
        for (i, log) in art.traces.iter().enumerate() {
            let cp = log.critical_path();
            let gap = (cp.accounted_s() - cp.makespan_s).abs();
            let tol = 1e-9 * cp.makespan_s.abs().max(1.0);
            if gap > tol {
                ok = false;
                let _ = write!(
                    detail,
                    "iter {i}: phases+idle {:.9}s vs makespan {:.9}s (gap {gap:.3e}); ",
                    cp.accounted_s(),
                    cp.makespan_s,
                );
            }
        }
        if ok {
            detail = format!(
                "{} iteration(s): phase totals + idle account for the full makespan",
                art.traces.len()
            );
        }
        report.record("trace-accounting", label, ok, detail);
    }
}

/// The distributed result must match the naive untiled reference.
fn check_reference_conformance(case: &Case, base: &RunArtifacts, report: &mut CheckReport) {
    let expect = (case.reference)(&base.ref_inputs);
    let label = format!("{}/vs-reference", case.name);
    if expect.len() != base.output_dense.len() {
        report.record(
            "reference-conformance",
            label,
            false,
            format!(
                "shape mismatch: reference {} elements, cluster {}",
                expect.len(),
                base.output_dense.len()
            ),
        );
        return;
    }
    let err2: f64 = expect
        .iter()
        .zip(&base.output_dense)
        .map(|(e, g)| (e - g) * (e - g))
        .sum();
    let norm2: f64 = expect.iter().map(|e| e * e).sum();
    let rel = (err2 / norm2.max(1e-300)).sqrt();
    report.record(
        "reference-conformance",
        label,
        rel < 1e-9,
        format!(
            "relative Frobenius error {rel:.3e} over {} elements (tolerance 1e-9)",
            expect.len()
        ),
    );
}

/// First line of divergence between two runs' fingerprints, for evidence.
fn diverged_detail(base_label: &str, base: &RunArtifacts, art: &RunArtifacts) -> String {
    if let Some((i, (b, a))) = base
        .fingerprint
        .lines()
        .zip(art.fingerprint.lines())
        .enumerate()
        .find(|(_, (b, a))| b != a)
    {
        return format!("fingerprint diverges from {base_label} at line {i}: `{b}` vs `{a}`");
    }
    if base.fingerprint.lines().count() != art.fingerprint.lines().count() {
        return format!(
            "fingerprint length differs from {base_label}: {} vs {} lines",
            base.fingerprint.lines().count(),
            art.fingerprint.lines().count()
        );
    }
    match base
        .output_bits
        .iter()
        .zip(&art.output_bits)
        .position(|(b, a)| b != a)
    {
        Some(i) => format!(
            "output bits diverge from {base_label} at element {i}: \
             {:016x} vs {:016x}",
            base.output_bits[i], art.output_bits[i]
        ),
        None => format!(
            "output length differs from {base_label}: {} vs {} elements",
            base.output_bits.len(),
            art.output_bits.len()
        ),
    }
}

// ---------------------------------------------------------------------------
// Global (model-level) checks
// ---------------------------------------------------------------------------

/// `cluster_cost` must equal `nodes × price × billed_hours` bitwise for
/// every policy across a makespan grid straddling the billing boundaries.
fn check_billing_function(report: &mut CheckReport) {
    for policy in [BillingPolicy::HourlyCeil, BillingPolicy::PerSecond] {
        let mut ok = true;
        let mut detail = String::new();
        for &makespan in &[0.0, 1.0, 1799.5, 3599.99, 3600.0, 3600.01, 5400.0, 86_400.0] {
            for &(nodes, price) in &[(1u32, 0.34), (7, 0.68), (64, 1.16)] {
                let cost = cluster_cost(policy, nodes, price, makespan);
                let product = nodes as f64 * price * billed_hours(policy, makespan);
                if cost.to_bits() != product.to_bits() {
                    ok = false;
                    let _ = write!(
                        detail,
                        "{nodes}×${price}/h at {makespan}s: cluster_cost ${cost} != \
                         nodes×price×billed_hours ${product}; ",
                    );
                }
            }
        }
        if ok {
            detail = "cluster_cost == nodes × price × billed_hours bitwise on a 24-point grid"
                .to_string();
        }
        report.record(
            "billing-identity",
            format!("function/{policy:?}"),
            ok,
            detail,
        );
    }
}

/// The closed-form wave estimate must stay inside a sigma-scaled envelope
/// of the Monte-Carlo list-scheduling estimate (and match exactly when
/// `sigma = 0`, where both models are deterministic).
fn check_estimate_envelope(opts: &CheckOptions, report: &mut CheckReport) {
    let trials = if opts.quick { 150 } else { 600 };
    for &sigma in &[0.0f64, 0.1, 0.3] {
        let mut ok = true;
        let mut worst_rel = 0.0f64;
        let mut worst = String::new();
        let mut detail = String::new();
        for &tasks in &[1usize, 4, 7, 32, 96] {
            for &slots in &[1u32, 8, 24] {
                let wave = job_time_s(10.0, tasks, slots, sigma);
                let mc = job_time_mc(10.0, tasks, slots, sigma, 0x5eed, trials);
                let scale = mc.abs().max(wave.abs()).max(1e-12);
                let rel = (wave - mc).abs() / scale;
                let tol_rel = if sigma == 0.0 {
                    1e-12
                } else {
                    0.05 + 0.75 * sigma
                };
                if rel > worst_rel {
                    worst_rel = rel;
                    worst = format!("tasks={tasks} slots={slots}: wave {wave:.4}s vs mc {mc:.4}s");
                }
                if rel > tol_rel {
                    ok = false;
                    let _ = write!(
                        detail,
                        "tasks={tasks} slots={slots}: wave {wave:.4}s vs mc {mc:.4}s \
                         (rel {rel:.4} > tol {tol_rel:.4}); ",
                    );
                }
            }
        }
        if ok {
            detail =
                format!("15-point (tasks × slots) grid, worst deviation {worst_rel:.4} ({worst})");
        }
        report.record(
            "estimate-envelope",
            format!("sigma{sigma}/trials{trials}"),
            ok,
            detail,
        );
    }
}

/// The optimized tile kernels must conform to their reference paths:
/// epsilon-bounded where summation order legitimately differs (packed
/// SIMD GEMM vs the naive reference), bitwise everywhere it is preserved
/// (the sparse kernels vs their references; the packed kernel across
/// intra-kernel thread counts). Runs on the host's production dispatch —
/// the same clone every real run uses — so the recorded level documents
/// what was actually verified.
fn check_kernel_conformance(report: &mut CheckReport) {
    use cumulon_matrix::{gen, set_kernel_threads, simd_level, DenseTile};

    let level = simd_level().name();
    // Dense packed GEMM vs the naive reference: shapes straddle the
    // MR=4/NR=8 micro-tile, the MC=64 macro-block and the KC=512 rank
    // slice, plus accumulation into a non-zero C.
    for (m, l, n) in [(64usize, 64usize, 64usize), (65, 130, 67), (33, 513, 41)] {
        let a = gen::dense_uniform_tile(11, 0, 0, m, l, -1.0, 1.0);
        let b = gen::dense_uniform_tile(13, 0, 0, l, n, -1.0, 1.0);
        let mut c = DenseTile::from_fn(m, n, |i, j| (i + 2 * j) as f64 * 0.01);
        let mut expect = c.data().to_vec();
        for (e, p) in expect
            .iter_mut()
            .zip(reference::matmul(a.data(), b.data(), m, l, n))
        {
            *e += p;
        }
        DenseTile::gemm_acc_packed(&mut c, &a, &b).unwrap();
        let tol = 1e-9 * l as f64;
        let worst = c
            .data()
            .iter()
            .zip(expect.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        report.record(
            "kernel-conformance",
            format!("dense-packed/{level}/{m}x{l}x{n}"),
            worst <= tol,
            format!("packed GEMM vs naive reference: worst |Δ| {worst:.3e} (tol {tol:.3e})"),
        );
    }

    // Intra-kernel threading: bitwise at 1 vs N vs all-cores on a
    // multiply large enough to engage the row-panel split.
    {
        let n = 320;
        let a = gen::dense_uniform_tile(17, 0, 0, n, n, -1.0, 1.0);
        let b = gen::dense_uniform_tile(19, 0, 0, n, n, -1.0, 1.0);
        set_kernel_threads(1);
        let mut serial = DenseTile::zeros(n, n);
        DenseTile::gemm_acc_packed(&mut serial, &a, &b).unwrap();
        let mut ok = true;
        let mut detail = String::new();
        for threads in [3usize, 0] {
            set_kernel_threads(threads);
            let mut par = DenseTile::zeros(n, n);
            DenseTile::gemm_acc_packed(&mut par, &a, &b).unwrap();
            if par != serial {
                ok = false;
                let _ = write!(detail, "threads={threads} diverged from serial; ");
            }
        }
        set_kernel_threads(1);
        if ok {
            detail = format!("{n}³ multiply bitwise-identical at threads 1/3/all");
        }
        report.record("kernel-conformance", "dense-packed/threading", ok, detail);
    }

    // Sparse kernels: the optimized paths preserve per-element operation
    // order exactly, so they must match their references bitwise.
    for (l, n, density) in [(37usize, 29usize, 0.15f64), (64, 64, 0.4)] {
        let s = gen::sparse_uniform_tile(23, 0, 0, l, n, density);
        let b = gen::dense_uniform_tile(29, 0, 0, n, 31, -1.0, 1.0);
        let init = DenseTile::from_fn(l, 31, |i, j| ((i * 5 + j) as f64).sin());
        let mut fast = init.clone();
        let mut slow = init;
        s.spmm_acc(&mut fast, &b).unwrap();
        s.spmm_acc_reference(&mut slow, &b).unwrap();
        report.record(
            "kernel-conformance",
            format!("spmm/{l}x{n}@{density}"),
            fast == slow,
            if fast == slow {
                "optimized SpMM bitwise-identical to reference".to_string()
            } else {
                "optimized SpMM diverged from reference".to_string()
            },
        );

        let a = gen::dense_uniform_tile(31, 0, 0, 30, l, -1.0, 1.0);
        let init = DenseTile::from_fn(30, n, |i, j| ((i + 3 * j) as f64).cos());
        let mut fast = init.clone();
        let mut slow = init;
        s.gemm_ds_acc(&mut fast, &a).unwrap();
        s.gemm_ds_acc_reference(&mut slow, &a).unwrap();
        report.record(
            "kernel-conformance",
            format!("gemm-ds/{l}x{n}@{density}"),
            fast == slow,
            if fast == slow {
                "optimized dense×sparse bitwise-identical to reference".to_string()
            } else {
                "optimized dense×sparse diverged from reference".to_string()
            },
        );
    }
}

/// Multi-tenancy must be observational: N tenants racing the same Gram
/// program through the `cumulon serve` admission path — per-tenant
/// quotas, the bounded priority queue, concurrent run workers and the
/// process-wide shared speculation pool — must each receive a
/// fingerprint bitwise-identical to the serial, private-pool direct
/// pipeline, at scheduler threads 1 and N. This is the service-layer
/// twin of `result-identity`: contention between tenants may shift
/// *when* speculative work happens, never what a run computes.
fn check_serve_isolation(opts: &CheckOptions, report: &mut CheckReport) {
    use cumulon_serve::{engine, Request, Service, ServiceConfig};

    let request = |id: &str, tenant: &str| {
        format!(
            "{{\"schema\":\"cumulon-serve-v1\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\
             \"action\":\"run\",\"script\":\"G = A' * A;\",\"inputs\":[\"A=96x48:16\"],\
             \"instance\":\"m1.large\",\"nodes\":4,\"slots\":2}}"
        )
    };
    let base_req = Request::parse(&request("base", "base")).expect("well-formed check request");
    let baseline = match engine::run(&base_req, 1, false) {
        Ok(out) => out.report.fingerprint(),
        Err(e) => {
            report.record(
                "serve-isolation",
                "gram/direct-baseline",
                false,
                format!("direct pipeline run failed: {e}"),
            );
            return;
        }
    };
    let tenants = if opts.quick { 2 } else { 3 };
    for threads in [1, threads_n()] {
        let label = format!("gram/t{threads}/{tenants}-tenants");
        let mut service = Service::start(ServiceConfig {
            threads,
            run_workers: tenants,
            queue_depth: tenants,
            ..Default::default()
        });
        let replies: Vec<String> = std::thread::scope(|s| {
            (0..tenants)
                .map(|i| {
                    let service = &service;
                    s.spawn(move || {
                        service.handle(&request(&format!("req-{i}"), &format!("tenant-{i}")))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("tenant thread panicked"))
                .collect()
        });
        service.shutdown();
        let mut ok = true;
        let mut detail = String::new();
        for (i, reply) in replies.iter().enumerate() {
            let fp = cumulon_trace::json::parse(reply).ok().and_then(|v| {
                v.get("fingerprint")
                    .and_then(|f| f.as_str())
                    .map(str::to_string)
            });
            match fp {
                Some(fp) if fp == baseline => {}
                Some(_) => {
                    ok = false;
                    let _ = write!(detail, "tenant-{i}: fingerprint diverged from baseline; ");
                }
                None => {
                    ok = false;
                    let _ = write!(detail, "tenant-{i}: no fingerprint in `{}`; ", reply.trim());
                }
            }
        }
        if ok {
            detail = format!(
                "{tenants} concurrent tenants through the service at {threads} scheduler \
                 thread(s): every fingerprint bitwise equal to the serial direct pipeline"
            );
        }
        report.record("serve-isolation", label, ok, detail);
    }
}

/// Deployment search must generate exactly the instance × slots × nodes
/// cross product — `max_nodes` included even when the stride skips it.
fn check_search_grid(report: &mut CheckReport) {
    let model = idealized_cost_model();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let x = b.input("X");
    let c = b.mul(a, x);
    b.output("C", c);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    for name in ["A", "X"] {
        inputs.insert(
            name.to_string(),
            InputDesc::dense(MatrixMeta::new(4_000, 4_000, 1_000)),
        );
    }

    let spaces = [
        ("stride1", SearchSpace::quick()),
        (
            "stride4",
            SearchSpace {
                node_stride: 4,
                ..SearchSpace::quick()
            },
        ),
        (
            "stride5-min2-max13",
            SearchSpace {
                min_nodes: 2,
                max_nodes: 13,
                node_stride: 5,
                slots_per_core: vec![0.5, 1.0],
                ..SearchSpace::quick()
            },
        ),
    ];
    for (name, space) in spaces {
        let nodes = space.node_options();
        let sorted = nodes.windows(2).all(|w| w[0] < w[1]);
        let in_range = nodes
            .iter()
            .all(|&n| (space.min_nodes..=space.max_nodes).contains(&n));
        let endpoints =
            nodes.first() == Some(&space.min_nodes) && nodes.last() == Some(&space.max_nodes);
        report.record(
            "search-grid-coverage",
            format!("node-options/{name}"),
            sorted && in_range && endpoints,
            format!(
                "candidates {nodes:?} for [{}, {}] stride {} (sorted: {sorted}, \
                 in range: {in_range}, endpoints present: {endpoints})",
                space.min_nodes, space.max_nodes, space.node_stride
            ),
        );

        let mut expected: BTreeSet<(&str, u32, u32)> = BTreeSet::new();
        for instance in &space.instances {
            for slots in space.slot_options(instance) {
                for &n in &nodes {
                    expected.insert((instance.name, slots, n));
                }
            }
        }
        let search = DeploymentSearch::new(&model, space.clone());
        match search.sweep(&program, &inputs) {
            Ok(plans) => {
                let got: BTreeSet<(&str, u32, u32)> = plans
                    .iter()
                    .map(|p| (p.instance.name, p.slots, p.nodes))
                    .collect();
                let missing: Vec<_> = expected.difference(&got).collect();
                let extra: Vec<_> = got.difference(&expected).collect();
                let ok = missing.is_empty() && extra.is_empty() && plans.len() == expected.len();
                report.record(
                    "search-grid-coverage",
                    format!("sweep/{name}"),
                    ok,
                    if ok {
                        format!(
                            "sweep evaluated all {} grid points exactly once",
                            plans.len()
                        )
                    } else {
                        format!(
                            "{} evaluated vs {} expected; missing {missing:?}; extra {extra:?}",
                            plans.len(),
                            expected.len()
                        )
                    },
                );
            }
            Err(e) => report.record(
                "search-grid-coverage",
                format!("sweep/{name}"),
                false,
                format!("sweep failed: {e}"),
            ),
        }

        for policy in [BillingPolicy::HourlyCeil, BillingPolicy::PerSecond] {
            let search = DeploymentSearch::new(
                &model,
                SearchSpace {
                    billing: policy,
                    ..space.clone()
                },
            );
            let outcome = winner_matches_sweep(&search, &program, &inputs);
            report.record(
                "search-grid-coverage",
                format!("winner/{name}/{policy:?}"),
                outcome.is_ok(),
                outcome.unwrap_or_else(|violation| violation),
            );
        }
    }
}

/// The search may skip grid points, never change the answer: under a
/// deadline and under a budget that split the grid, `optimize` must return
/// the row an exhaustive `sweep` ranks first, bit for bit, and under a
/// deadline no row meets it must report infeasibility.
fn winner_matches_sweep(
    search: &DeploymentSearch<'_>,
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
) -> std::result::Result<String, String> {
    let rows = search
        .sweep(program, inputs)
        .map_err(|e| format!("sweep failed: {e}"))?;
    let median = |mut values: Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let deadline = median(rows.iter().map(|r| r.estimate.makespan_s).collect());
    let budget = median(rows.iter().map(|r| r.estimate.cost_dollars).collect());
    let fastest = rows
        .iter()
        .map(|r| r.estimate.makespan_s)
        .fold(f64::INFINITY, f64::min);
    for constraint in [
        Constraint::Deadline(deadline),
        Constraint::Budget(budget),
        Constraint::Deadline(0.5 * fastest),
    ] {
        // `None` for a row that misses the constraint, else its rank.
        let rank = |r: &DeploymentPlan| {
            let (makespan, cost) = (r.estimate.makespan_s, r.estimate.cost_dollars);
            match constraint {
                Constraint::Deadline(d) => (makespan <= d).then_some((cost, makespan)),
                Constraint::Budget(b) => (cost <= b).then_some((makespan, cost)),
            }
        };
        let mut expect: Option<&DeploymentPlan> = None;
        for row in &rows {
            if let Some(key) = rank(row) {
                if expect.and_then(rank).is_none_or(|best| key < best) {
                    expect = Some(row);
                }
            }
        }
        let got = search.optimize(program, inputs, constraint);
        let same = match (&got, expect) {
            (Ok(got), Some(row)) => {
                (got.instance.name, got.slots, got.nodes)
                    == (row.instance.name, row.slots, row.nodes)
                    && got.estimate == row.estimate
            }
            (Err(CoreError::Infeasible(_)), None) => true,
            _ => false,
        };
        if !same {
            return Err(format!(
                "{constraint:?}: optimize returned {} where the sweep's first-ranked row is {}",
                got.map_or_else(|e| format!("`{e}`"), |d| d.summary()),
                expect.map_or_else(|| "none (infeasible)".to_string(), DeploymentPlan::summary),
            ));
        }
    }
    Ok(format!(
        "optimize == first-ranked of {} sweep rows under a {deadline:.1}s deadline and a          ${budget:.2} budget; infeasible below the fastest row",
        rows.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report's `invariant config` pairs, sorted, one per line, with
    /// the host-dependent parts of a label normalized: the N of the
    /// `threads ∈ {1, N}` axis becomes `tN`, and the packed GEMM's SIMD
    /// tier becomes `SIMD`.
    fn golden_labels(report: &CheckReport) -> String {
        let threads = format!("/t{}/", threads_n());
        let simd = format!("dense-packed/{}/", cumulon_matrix::simd_level().name());
        let mut lines: Vec<String> = report
            .outcomes
            .iter()
            .map(|o| {
                let config = o
                    .config
                    .replace(&threads, "/tN/")
                    .replace(&simd, "dense-packed/SIMD/");
                format!("{} {config}\n", o.invariant)
            })
            .collect();
        lines.sort();
        lines.concat()
    }

    /// Compares the report's normalized labels with `golden/{file}`,
    /// after writing them there when `BLESS_CHECK_GOLDEN` is set (the
    /// golden is read at run time, so a bless run compares against what it
    /// just wrote), and names the new and missing labels on a mismatch.
    fn assert_labels_match_golden(report: &CheckReport, file: &str, test: &str) {
        let labels = golden_labels(report);
        let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("BLESS_CHECK_GOLDEN").is_some() {
            std::fs::write(&path, &labels).expect("bless golden");
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        if labels != golden {
            let (got, want): (BTreeSet<&str>, BTreeSet<&str>) =
                (labels.lines().collect(), golden.lines().collect());
            panic!(
                "check labels diverged from golden/{file}\n\
                 new: {:?}\nmissing: {:?}\n\
                 if intentional, re-bless with BLESS_CHECK_GOLDEN=1 \
                 cargo test -p cumulon-check {test}",
                got.difference(&want).collect::<Vec<_>>(),
                want.difference(&got).collect::<Vec<_>>()
            );
        }
    }

    /// The quick lattice at HEAD must pass clean — this is the CI gate's
    /// in-process twin, so a reintroduced invariant violation fails
    /// `cargo test` even before the `cumulon check` step runs. Its labels
    /// must equal the committed golden list, so a label that appears,
    /// disappears or is renamed fails here by name. Re-bless after an
    /// intentional lattice change with:
    ///
    /// ```sh
    /// BLESS_CHECK_GOLDEN=1 cargo test -p cumulon-check quick_suite_passes_at_head
    /// ```
    #[test]
    fn quick_suite_passes_at_head() {
        let report = run_checks(&CheckOptions { quick: true }).unwrap();
        assert!(
            report.passed(),
            "invariant violations at HEAD:\n{}",
            report.render()
        );
        assert_labels_match_golden(&report, "quick_labels.txt", "quick_suite_passes_at_head");
        // Every invariant class must actually be exercised.
        for inv in [
            "result-identity",
            "reference-conformance",
            "byte-conservation",
            "billing-identity",
            "trace-accounting",
            "recovery-idempotence",
            "revocation-survivability",
            "estimate-envelope",
            "search-grid-coverage",
            "kernel-conformance",
            "spill-transparency",
            "spill-schedule-transparency",
            "serve-isolation",
        ] {
            assert!(
                report.outcomes.iter().any(|o| o.invariant == inv),
                "invariant {inv} never evaluated:\n{}",
                report.render()
            );
        }
    }

    /// The full lattice must pass clean too, and its labels are pinned the
    /// same way, so a full-only arm that disappears fails here by name.
    /// Re-bless with
    /// `BLESS_CHECK_GOLDEN=1 cargo test -p cumulon-check full_suite_labels_match_golden`.
    #[test]
    fn full_suite_labels_match_golden() {
        let report = run_checks(&CheckOptions { quick: false }).unwrap();
        assert!(
            report.passed(),
            "invariant violations at HEAD:\n{}",
            report.render()
        );
        assert_labels_match_golden(&report, "full_labels.txt", "full_suite_labels_match_golden");
    }

    /// The checker must *fail* when an invariant is broken: hand it a
    /// search space whose sweep provably skips `max_nodes` by simulating
    /// the pre-fix candidate generation.
    #[test]
    fn detects_broken_node_grid() {
        // The fixed node_options always includes max_nodes; emulate the
        // old bug by checking its output against a strided range that
        // skips the endpoint, which is exactly what the checker guards.
        let space = SearchSpace {
            node_stride: 4,
            ..SearchSpace::quick()
        };
        let buggy: Vec<u32> = (space.min_nodes..=space.max_nodes)
            .step_by(space.node_stride as usize)
            .collect();
        assert_ne!(
            buggy,
            space.node_options(),
            "non-dividing stride must be repaired by node_options"
        );
        assert_eq!(space.node_options().last(), Some(&space.max_nodes));
    }

    /// The first case's baseline and its arms, built as the runner does.
    fn first_case_arms(quick: bool) -> (Case, RunArtifacts, Vec<Arm>) {
        let case = suite().remove(0);
        let base = run_case(&case, BASELINE, &FailurePlan::default()).unwrap();
        let arms = arms(&case, &CheckOptions { quick }, &base);
        (case, base, arms)
    }

    /// Faulted runs in the suite really do fire faults (the idempotence
    /// check is not vacuous).
    #[test]
    fn recovery_check_is_not_vacuous() {
        let (case, base, arms) = first_case_arms(true);
        let arm = arms
            .iter()
            .find(|a| a.invariant == "recovery-idempotence")
            .expect("a recovery arm");
        let art = run_case(&case, arm.point, &arm.failures).unwrap();
        let (ok, detail) = verdict(arm, ("base", &base), &art);
        assert!(ok, "{detail}");
        assert!(detail.contains("faults fired: true"), "{detail}");
    }

    /// Every arm kind must fail on the perturbation its verdict guards
    /// against, and say why: a changed fingerprint line or output bit is
    /// named by line or element, a clean fault counter, a revocation that
    /// claimed nothing and a budget that evicted nothing by the counter,
    /// and a leaking spill ledger by the ledger.
    #[test]
    fn verdict_fails_every_perturbation() {
        let (_, base, arms) = first_case_arms(false);
        let arm = |invariant: &str, matches: fn(&Arm) -> bool| {
            arms.iter()
                .find(|a| a.invariant == invariant && matches(a))
                .unwrap_or_else(|| panic!("no {invariant} arm"))
        };
        let identity = arm("result-identity", |a| {
            matches!(a.matches, Match::Fingerprint)
        });
        let per_second = arm("result-identity", |a| matches!(a.matches, Match::Makespans));
        let recovery = arm("recovery-idempotence", |_| true);
        let revocation = arm("revocation-survivability", |_| true);
        let spill = arm("spill-transparency", |_| true);
        let schedule = arm("spill-schedule-transparency", |_| true);
        let every = [identity, per_second, recovery, revocation, spill, schedule];

        // A copy of the baseline that passes every arm's counters, so each
        // perturbation below is the only thing wrong.
        let mut fired = base.clone();
        fired.reports[0].faults.retries = 1;
        fired.reports[0].faults.revocations = 1;
        fired.reports[0].faults.revoked_nodes = 1;
        fired.spill = Some(SpillStats {
            evictions: 1,
            ..Default::default()
        });
        fired.spill_conserved = true;
        for arm in every {
            let (ok, detail) = verdict(arm, ("base", &base), &fired);
            assert!(
                ok,
                "{}: unperturbed copy must pass: {detail}",
                arm.invariant
            );
        }

        let judge = |arm: &Arm, art: &RunArtifacts, needle: &str| {
            let (ok, detail) = verdict(arm, ("base", &base), art);
            assert!(!ok, "{} at {:?} passed: {detail}", arm.invariant, arm.point);
            assert!(
                detail.contains(needle),
                "{} at {:?}: `{needle}` not in `{detail}`",
                arm.invariant,
                arm.point
            );
        };

        let mut line = fired.clone();
        line.fingerprint = line.fingerprint.replacen("\n", "\nperturbed ", 1);
        for arm in [identity, spill, schedule] {
            judge(arm, &line, "fingerprint diverges from base at line 1");
        }

        let mut bit = fired.clone();
        bit.output_bits[7] ^= 1;
        for arm in every {
            judge(arm, &bit, "output bits diverge from base at element 7");
        }

        let mut slower = fired.clone();
        slower.reports[0].makespan_s += 1.0;
        judge(per_second, &slower, "makespan bits diverge from base");

        let mut clean = fired.clone();
        clean.reports[0].faults = Default::default();
        judge(recovery, &clean, "faults fired: false (0 retries)");
        judge(revocation, &clean, "claimed 0 node(s)");

        let mut kept = fired.clone();
        kept.spill = Some(SpillStats::default());
        for arm in [spill, schedule] {
            judge(arm, &kept, "0 eviction(s)");
        }

        let mut leaked = fired.clone();
        leaked.spill_conserved = false;
        for arm in [spill, schedule] {
            judge(arm, &leaked, "ledger conserved: false");
        }
    }
}
