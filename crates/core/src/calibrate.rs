//! Cost-model calibration: benchmark the (simulated) hardware, fit
//! task-time models by least squares.
//!
//! This reproduces the paper's methodology: the optimizer's knowledge of
//! the hardware comes *only* from fitted coefficients, never from the
//! simulator's internals. For each instance type the calibrator runs a
//! battery of operator-shaped probe jobs across slot configurations,
//! measures task durations, and regresses
//!
//! ```text
//! t ≈ c₀ + c₁·(flops·max(1, S/cores)) + c₂·(local_read·S) + c₃·(remote_read·S)
//!        + c₄·(local_write·S) + c₅·(remote_write·S) + c₆·io_ops + c₇·(spill·S)
//! ```
//!
//! where `S` is the slot count — the contention-adjusted featurization that
//! makes coefficients valid across slot configurations. Straggler spread is
//! estimated from the fit residuals (`sigma`). A memory-pressure factor
//! with the framework's published form (demand over capacity, squared) is
//! applied to the I/O terms of both calibration features and predictions.
//!
//! `c₇` is the **disk-tier coefficient**: seconds per byte of out-of-core
//! spill traffic (the memory-budgeted tile plane re-reading demoted tiles
//! from local disk). The synthetic probe battery carries no spill
//! evidence — its column is identically zero, and the OLS solver pins such
//! columns to coefficient 0 instead of failing — so `c₇` is fit from a
//! *measured* host profile ([`SpillProfile::measure`] +
//! [`refit_disk_tier`]), the same keep-it-honest idiom as
//! [`refit_cpu_from_kernels`].

use std::collections::BTreeMap;

use cumulon_cluster::instances::InstanceType;
use cumulon_cluster::{Cluster, ClusterSpec, ExecMode, Job, JobDag, Task};
use cumulon_dfs::IoReceipt;
use cumulon_matrix::ops::Work;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::estimate::TaskFeatures;

/// Framework memory floor per slot, MB (matches the deployed stack).
pub(crate) const TASK_MEM_FLOOR_MB: f64 = 200.0;
/// Exponent of the memory-pressure penalty.
pub(crate) const MEM_PENALTY_EXP: f64 = 2.0;

/// Memory-pressure multiplier on I/O time for a task of `mem_mb` resident
/// MB when `slots` run concurrently on `instance`.
pub(crate) fn mem_penalty(instance: &InstanceType, slots: u32, mem_mb: f64) -> f64 {
    let demand = slots as f64 * (mem_mb + TASK_MEM_FLOOR_MB);
    let pressure = demand / instance.memory_mb as f64;
    if pressure > 1.0 {
        pressure.powf(MEM_PENALTY_EXP)
    } else {
        1.0
    }
}

/// Contention-adjusted feature vector `[1, cpu, lr, rr, lw, rw, ops, spill]`.
/// Spill traffic contends for the local disk like other I/O (slot-scaled)
/// but takes no memory-pressure penalty: spilling is the *response* to
/// pressure, not subject to it.
pub fn featurize(instance: &InstanceType, slots: u32, f: &TaskFeatures) -> [f64; 8] {
    let s = slots.max(1) as f64;
    let cpu_adj = (s / instance.cores as f64).max(1.0);
    let pen = mem_penalty(instance, slots, f.mem_mb);
    [
        1.0,
        f.flops * cpu_adj,
        f.local_read * s * pen,
        f.remote_read * s * pen,
        f.local_write * s * pen,
        f.remote_write * s * pen,
        f.io_ops,
        f.spill_bytes * s,
    ]
}

/// Fitted task-time coefficients for one instance type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCoefficients {
    /// `[c₀ … c₇]` over [`featurize`]'s features.
    pub c: [f64; 8],
    /// Fitted straggler spread (std of log residuals).
    pub sigma: f64,
}

/// The shortest time [`OpCoefficients::predict`] gives any task: a fit
/// with negative coefficients cannot predict a free or negative task.
pub const MIN_TASK_S: f64 = 1e-6;

impl OpCoefficients {
    /// Predicted task seconds, at least [`MIN_TASK_S`].
    pub fn predict(&self, instance: &InstanceType, slots: u32, f: &TaskFeatures) -> f64 {
        let x = featurize(instance, slots, f);
        self.c
            .iter()
            .zip(x.iter())
            .map(|(c, x)| c * x)
            .sum::<f64>()
            .max(MIN_TASK_S)
    }

    /// Closed-form coefficients from the spec sheet (used as a baseline in
    /// tests and for experiments that bypass calibration).
    pub fn idealized(instance: &InstanceType, startup_s: f64, cpu_efficiency: f64) -> Self {
        OpCoefficients {
            c: [
                startup_s,
                1.0 / (instance.gflops_per_core * 1e9 * cpu_efficiency),
                1.0 / (instance.disk_read_mbs * 1e6),
                1.0 / (instance.net_mbs * 1e6),
                1.0 / (instance.disk_write_mbs * 1e6),
                1.0 / (instance.net_mbs * 1e6),
                0.02,
                // Disk tier: a spilled byte comes back at local-disk read
                // rate (no network hop — blob segments are node-local).
                1.0 / (instance.disk_read_mbs * 1e6),
            ],
            sigma: 0.08,
        }
    }
}

/// A set of fitted models, keyed by instance-type name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    per_instance: BTreeMap<String, OpCoefficients>,
}

impl CostModel {
    /// Model with a single instance entry.
    #[cfg(test)]
    pub(crate) fn single(instance: &str, coeffs: OpCoefficients) -> Self {
        let mut per_instance = BTreeMap::new();
        per_instance.insert(instance.to_string(), coeffs);
        CostModel { per_instance }
    }

    /// Inserts/overwrites an instance's coefficients.
    pub fn insert(&mut self, instance: &str, coeffs: OpCoefficients) {
        self.per_instance.insert(instance.to_string(), coeffs);
    }

    /// Coefficients for an instance type.
    pub fn for_instance(&self, instance: &str) -> Option<&OpCoefficients> {
        self.per_instance.get(instance)
    }

    /// Coefficients for an instance type, or the calibration error every
    /// estimator and planner reports when the type was never fitted.
    pub(crate) fn require(&self, instance: &str) -> Result<&OpCoefficients> {
        self.for_instance(instance)
            .ok_or_else(|| CoreError::Calibration(format!("no model for {instance}")))
    }
}

/// Calibration settings.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Nodes in the probe cluster.
    pub nodes: u32,
    /// Tasks per probe job (more = more samples per configuration).
    pub tasks_per_probe: usize,
    /// Seed so probes are reproducible.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            nodes: 2,
            tasks_per_probe: 10,
            seed: 0xca11,
        }
    }
}

/// One synthetic probe: the receipt its tasks will charge.
#[derive(Debug, Clone, Copy)]
struct Probe {
    flops: f64,
    local_read: f64,
    remote_read: f64,
    local_write: f64,
    remote_write: f64,
    io_ops: u64,
}

fn probe_battery() -> Vec<Probe> {
    let zero = Probe {
        flops: 0.0,
        local_read: 0.0,
        remote_read: 0.0,
        local_write: 0.0,
        remote_write: 0.0,
        io_ops: 0,
    };
    let mut probes = vec![zero];
    // Axis-aligned probes, sized so the probed resource dominates the
    // task-startup floor (otherwise the slope drowns in straggler noise).
    for &f in &[2e9, 8e9, 2e10] {
        probes.push(Probe { flops: f, ..zero });
    }
    for &b in &[2e8, 8e8] {
        probes.push(Probe {
            local_read: b,
            ..zero
        });
        probes.push(Probe {
            remote_read: b,
            ..zero
        });
        probes.push(Probe {
            local_write: b,
            ..zero
        });
        probes.push(Probe {
            remote_write: b,
            ..zero
        });
    }
    for &n in &[200u64, 800] {
        probes.push(Probe { io_ops: n, ..zero });
    }
    // Mixed, operator-shaped probes (a multiply and a fused job profile).
    probes.push(Probe {
        flops: 1.6e9,
        local_read: 2.4e8,
        remote_read: 8e7,
        local_write: 8e7,
        remote_write: 1.6e8,
        io_ops: 48,
    });
    probes.push(Probe {
        flops: 1e8,
        local_read: 1.6e8,
        remote_read: 1.6e8,
        local_write: 1.6e8,
        remote_write: 3.2e8,
        io_ops: 96,
    });
    probes
}

/// Runs the probe battery on one instance type, returning fitted
/// coefficients.
pub(crate) fn calibrate_instance(
    instance: &InstanceType,
    config: &CalibrationConfig,
) -> Result<OpCoefficients> {
    let mut xs: Vec<[f64; 8]> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let slot_options = {
        let mut v = vec![1u32, instance.cores];
        v.dedup();
        v
    };
    for &slots in &slot_options {
        let spec = ClusterSpec {
            instance: *instance,
            nodes: config.nodes,
            slots_per_node: slots,
        };
        // Distinct straggler-noise seed per configuration: otherwise the
        // same few noise draws repeat across configurations and bias the
        // fit instead of averaging out.
        let mut hw = cumulon_cluster::HardwareModel::default();
        let name_hash: u64 = instance
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        hw.noise =
            cumulon_cluster::NoiseModel::standard(config.seed ^ ((slots as u64) << 32) ^ name_hash);
        let cluster = Cluster::provision_with(spec, hw, cumulon_dfs::DfsConfig::default())
            .map_err(CoreError::from)?;
        let mut dag = JobDag::new();
        for probe in probe_battery() {
            let tasks = (0..config.tasks_per_probe)
                .map(|_| {
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: probe.flops,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        ctx.charge_read_io(IoReceipt {
                            bytes: (probe.local_read + probe.remote_read) as u64,
                            local_bytes: probe.local_read as u64,
                            remote_bytes: probe.remote_read as u64,
                        });
                        ctx.charge_write_io(IoReceipt {
                            bytes: (probe.local_write + probe.remote_write) as u64,
                            local_bytes: probe.local_write as u64,
                            remote_bytes: probe.remote_write as u64,
                        });
                        ctx.charge_io_ops(probe.io_ops);
                        Ok(())
                    })
                })
                .collect();
            dag.push(
                Job::new(format!("probe{}", dag.jobs.len()), "probe", tasks),
                vec![],
            );
        }
        let report = cluster
            .run(&dag, ExecMode::Simulated)
            .map_err(CoreError::from)?;
        // Jobs complete in arbitrary order; match stats back by name.
        for (idx, probe) in probe_battery().into_iter().enumerate() {
            let job_stats = report
                .job(&format!("probe{idx}"))
                .ok_or_else(|| CoreError::Calibration(format!("probe{idx} missing from report")))?;
            let features = TaskFeatures {
                flops: probe.flops,
                local_read: probe.local_read,
                remote_read: probe.remote_read,
                local_write: probe.local_write,
                remote_write: probe.remote_write,
                mem_mb: 0.0,
                io_ops: probe.io_ops as f64,
                // No spill evidence in the synthetic battery: the column
                // is identically zero and `ols` pins c₇ to 0. The disk
                // tier is fit from a measured profile (`refit_disk_tier`).
                spill_bytes: 0.0,
            };
            let x = featurize(instance, slots, &features);
            for t in &job_stats.tasks {
                xs.push(x);
                ys.push(t.duration_s());
            }
        }
    }
    fit_samples(&xs, &ys)
}

/// Fits [`OpCoefficients`] from pre-featurized samples: `xs` are
/// [`featurize`] rows and `ys` the observed task durations in seconds.
/// This is the regression core of `calibrate_instance`, exposed so
/// profiles harvested from *traced runs* (task spans from a
/// [`cumulon_trace::TraceLog`] paired with their plan's analytic
/// features) can refine a model without re-running the synthetic probe
/// battery. Straggler `sigma` is estimated from the log-residuals of the
/// fit. Needs at least 7 samples spanning the feature space; degenerate
/// designs return [`CoreError::Calibration`].
pub fn fit_samples(xs: &[[f64; 8]], ys: &[f64]) -> Result<OpCoefficients> {
    let c = ols(xs, ys)?;
    // Residual spread → straggler sigma.
    let mut sq = 0.0;
    let mut n = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let pred: f64 = c.iter().zip(x.iter()).map(|(c, x)| c * x).sum();
        if pred > 1e-9 && *y > 0.0 {
            let r = (y / pred).ln();
            sq += r * r;
            n += 1.0;
        }
    }
    let sigma = if n > 0.0 { (sq / n).sqrt() } else { 0.0 };
    Ok(OpCoefficients { c, sigma })
}

/// A cost model with closed-form (spec-sheet) coefficients for every
/// catalog instance type — for examples, tests and the service's fast
/// lane, which do not run the calibration pass. Production flows should
/// prefer [`calibrate`].
pub fn idealized_cost_model() -> CostModel {
    let mut m = CostModel::default();
    for i in cumulon_cluster::instances::catalog() {
        m.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    m
}

/// Calibrates a set of instance types.
pub fn calibrate(instances: &[InstanceType], config: &CalibrationConfig) -> Result<CostModel> {
    let mut model = CostModel::default();
    for instance in instances {
        let coeffs = calibrate_instance(instance, config)?;
        model.insert(instance.name, coeffs);
    }
    Ok(model)
}

// ---------------------------------------------------------------------------
// Host kernel profiling — keeping the CPU coefficient honest
// ---------------------------------------------------------------------------

/// One wall-clock-timed run of a production tile kernel on this host.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KernelSample {
    /// Which kernel ran (`"gemm_packed"`, `"spmm"`, `"gemm_ds"`).
    pub kernel: &'static str,
    /// Problem size (square dimension / dense side).
    pub n: usize,
    /// Exact flops the run performed.
    pub flops: f64,
    /// Best-of-reps wall-clock seconds.
    pub seconds: f64,
}

impl KernelSample {
    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.seconds / 1e9
    }
}

/// Wall-clock profile of the production tile kernels on the current
/// host, used to re-fit the cost model's CPU coefficients so
/// [`crate::estimate`]'s flop rates track what the kernels actually
/// achieve (see [`refit_cpu_from_kernels`]). A cost model seeded from
/// spec-sheet rates ([`OpCoefficients::idealized`]) silently goes stale
/// every time the kernels change speed; the whole optimizer inherits the
/// error.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// SIMD clone the dense kernel dispatched to (host-dependent).
    pub simd_level: &'static str,
    /// Individual timed runs, dense and sparse.
    pub samples: Vec<KernelSample>,
}

impl KernelProfile {
    /// Times the production kernels on this host: the packed dense GEMM
    /// at several tile sizes plus the optimized sparse kernels. Each
    /// sample is best-of-`reps` to shed scheduler noise. `quick` trims
    /// the battery for CI budgets.
    pub fn measure(quick: bool) -> KernelProfile {
        use cumulon_matrix::{gen, DenseTile};
        use std::time::Instant;

        let mut samples = Vec::new();
        let (sizes, reps): (&[usize], usize) = if quick {
            (&[192, 256], 2)
        } else {
            (&[128, 192, 256, 512], 3)
        };
        for &n in sizes {
            let a = gen::dense_uniform_tile(3, 0, 0, n, n, -1.0, 1.0);
            let b = gen::dense_uniform_tile(5, 0, 0, n, n, -1.0, 1.0);
            let mut c = DenseTile::zeros(n, n);
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                DenseTile::gemm_acc_packed(&mut c, &a, &b).expect("square gemm");
                best = best.min(t0.elapsed().as_secs_f64());
            }
            samples.push(KernelSample {
                kernel: "gemm_packed",
                n,
                flops: 2.0 * (n as f64).powi(3),
                seconds: best,
            });
        }
        // Sparse kernels: flops scale with nnz, not n³.
        let (l, n, density) = (512usize, 256usize, 0.05f64);
        let s = gen::sparse_uniform_tile(7, 0, 0, l, l, density);
        let b = gen::dense_uniform_tile(9, 0, 0, l, n, -1.0, 1.0);
        let mut c = DenseTile::zeros(l, n);
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(2) {
            let t0 = Instant::now();
            s.spmm_acc(&mut c, &b).expect("spmm shapes");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        samples.push(KernelSample {
            kernel: "spmm",
            n: l,
            flops: 2.0 * s.nnz() as f64 * n as f64,
            seconds: best,
        });
        let a = gen::dense_uniform_tile(11, 0, 0, n, l, -1.0, 1.0);
        let mut c = DenseTile::zeros(n, l);
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(2) {
            let t0 = Instant::now();
            s.gemm_ds_acc(&mut c, &a).expect("gemm-ds shapes");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        samples.push(KernelSample {
            kernel: "gemm_ds",
            n: l,
            flops: 2.0 * s.nnz() as f64 * n as f64,
            seconds: best,
        });
        KernelProfile {
            simd_level: cumulon_matrix::simd_level().name(),
            samples,
        }
    }

    /// Best dense-GEMM rate achieved, GFLOP/s.
    pub fn dense_gflops(&self) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.kernel == "gemm_packed")
            .map(KernelSample::gflops)
            .fold(0.0, f64::max)
    }
}

/// Re-fits an instance's CPU coefficients from a measured
/// [`KernelProfile`], via [`fit_samples`] on a prior-anchored design:
///
/// * each *dense* kernel sample becomes a pure-compute row — features
///   `[1, flops, 0, …]` at one uncontended slot — labelled
///   `startup + measured seconds` (the base model's intercept `c₀` *is*
///   task startup, which a raw kernel timing doesn't include). Sparse
///   samples are profiled but excluded from the regression: they retire
///   flops at a memory-bound rate, and mixing them into the shared
///   flops column flattens the slope (small-flops/large-seconds rows
///   drag the implied marginal rate far above anything measured);
/// * the base model labels one anchor row per remaining feature
///   direction (the [`run_elastic`](cumulon_cluster::Cluster) refit
///   idiom), so I/O and startup coefficients keep their fitted values
///   where the profile has no evidence.
///
/// The result: `c₁` tracks the *measured* kernel flop rate while
/// everything else agrees with `base`. Straggler `sigma` keeps the base
/// value (a profile of best-of-reps timings carries no straggler
/// information).
pub fn refit_cpu_from_kernels(
    base: &OpCoefficients,
    instance: &InstanceType,
    profile: &KernelProfile,
) -> Result<OpCoefficients> {
    let mut xs: Vec<[f64; 8]> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for s in profile.samples.iter().filter(|s| s.kernel == "gemm_packed") {
        let f = TaskFeatures {
            flops: s.flops,
            ..Default::default()
        };
        xs.push(featurize(instance, 1, &f));
        ys.push(base.c[0] + s.seconds);
    }
    if xs.is_empty() {
        return Err(CoreError::Calibration(
            "kernel profile has no dense gemm samples".into(),
        ));
    }
    // Anchor rows: one dominant direction each, labelled by the base
    // model so the fit stays full-rank and agrees with `base` off the
    // CPU axis.
    // Zero flops in every anchor: the kernel samples alone identify the
    // CPU column, so anchors and samples never disagree about it.
    let anchor = |f: TaskFeatures| (featurize(instance, 1, &f), base.predict(instance, 1, &f));
    let base_f = TaskFeatures {
        flops: 0.0,
        local_read: 1e6,
        remote_read: 1e6,
        local_write: 1e6,
        remote_write: 1e6,
        mem_mb: 8.0,
        io_ops: 4.0,
        spill_bytes: 1e6,
    };
    let mut anchors = vec![base_f];
    for i in 0..6 {
        let mut f = base_f;
        match i {
            0 => f.local_read = 4e8,
            1 => f.remote_read = 4e8,
            2 => f.local_write = 4e8,
            3 => f.remote_write = 4e8,
            4 => f.io_ops = 512.0,
            // Disk-tier anchor: keeps the refit full-rank on c₇ and
            // agreeing with `base` where the kernel profile is silent.
            _ => f.spill_bytes = 4e8,
        }
        anchors.push(f);
    }
    for f in anchors {
        let (x, y) = anchor(f);
        xs.push(x);
        ys.push(y);
    }
    let fitted = fit_samples(&xs, &ys)?;
    Ok(OpCoefficients {
        sigma: base.sigma,
        ..fitted
    })
}

// ---------------------------------------------------------------------------
// Host spill-tier profiling — keeping the disk coefficient honest
// ---------------------------------------------------------------------------

/// Wall-clock-timed round-trip through the out-of-core blob store on this
/// host: how fast spilled tiles actually come back from local disk. The
/// synthetic probe battery carries no spill evidence (its c₇ column is
/// identically zero and the OLS solver pins the coefficient to 0), so this
/// measured profile is what gives the cost model a disk tier — the same
/// keep-it-honest idiom as [`KernelProfile`] for the CPU coefficient.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpillProfile {
    /// Payload bytes pushed through the store.
    pub bytes: u64,
    /// Seconds spent appending (demotion path).
    pub write_s: f64,
    /// Seconds spent reading back (re-admission path).
    pub read_s: f64,
}

impl SpillProfile {
    /// Measures blob-segment round-trip throughput with incompressible
    /// payloads stored raw (compression would measure the codec, not the
    /// disk). `quick` trims the volume for CI budgets. Best-of-2 on each
    /// direction to shed scheduler noise.
    pub fn measure(quick: bool) -> Result<SpillProfile> {
        use cumulon_dfs::blob::{BlobKey, BlobStore};
        use cumulon_matrix::compress::Codec;
        use std::time::Instant;

        let (entry_bytes, entries) = if quick { (1 << 20, 8) } else { (4 << 20, 16) };
        // Incompressible deterministic payload (LCG bytes).
        let mut payload = vec![0u8; entry_bytes];
        let mut state = 0x9e3779b97f4a7c15u64;
        for b in payload.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        let dir = std::env::temp_dir().join(format!("cumulon-spill-probe-{}", std::process::id()));
        let mut best_write = f64::INFINITY;
        let mut best_read = f64::INFINITY;
        for _rep in 0..2 {
            let mut store = BlobStore::open(dir.clone())
                .map_err(|e| CoreError::Calibration(format!("spill probe: {e}")))?;
            let keys: Vec<BlobKey> = (0..entries)
                .map(|i| {
                    payload[0] = i as u8; // distinct content per entry
                    BlobKey::digest(&payload)
                })
                .collect();
            let t0 = Instant::now();
            for (i, &key) in keys.iter().enumerate() {
                payload[0] = i as u8;
                store
                    .put(key, Codec::Raw, &payload, entry_bytes as u32)
                    .map_err(|e| CoreError::Calibration(format!("spill probe put: {e}")))?;
            }
            best_write = best_write.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            for &key in &keys {
                let (_, data, _) = store
                    .get(key)
                    .map_err(|e| CoreError::Calibration(format!("spill probe get: {e}")))?;
                std::hint::black_box(&data);
            }
            best_read = best_read.min(t0.elapsed().as_secs_f64());
            // Dropping the store removes the probe directory.
        }
        Ok(SpillProfile {
            bytes: (entry_bytes * entries) as u64,
            write_s: best_write,
            read_s: best_read,
        })
    }

    /// Measured re-admission throughput, bytes/second.
    pub fn readback_bps(&self) -> f64 {
        self.bytes as f64 / self.read_s.max(1e-9)
    }

    /// Measured demotion throughput, bytes/second.
    pub fn writeback_bps(&self) -> f64 {
        self.bytes as f64 / self.write_s.max(1e-9)
    }
}

/// Re-fits the disk-tier coefficient `c₇` from a measured
/// [`SpillProfile`]: a spilled byte costs one re-read at the measured
/// blob-store readback rate. Every other coefficient and `sigma` keep
/// their values from `base` — the profile carries no evidence about them.
pub fn refit_disk_tier(base: &OpCoefficients, profile: &SpillProfile) -> OpCoefficients {
    let mut c = base.c;
    c[7] = 1.0 / profile.readback_bps();
    OpCoefficients {
        c,
        sigma: base.sigma,
    }
}

/// Ordinary least squares via normal equations + Gaussian elimination.
// Index loops: the elimination updates aug[row][k] from aug[col][k], a
// split borrow iterators can't express cleanly.
#[allow(clippy::needless_range_loop)]
fn ols(xs: &[[f64; 8]], ys: &[f64]) -> Result<[f64; 8]> {
    const D: usize = 8;
    // Only columns with any evidence need identifying; zero columns are
    // pinned to coefficient 0 below, not estimated.
    let active = (0..D).filter(|&j| xs.iter().any(|x| x[j] != 0.0)).count();
    if xs.len() < active {
        return Err(CoreError::Calibration(format!(
            "only {} samples for {active} active coefficients",
            xs.len()
        )));
    }
    // Normal equations: A = XᵀX (D×D), b = Xᵀy.
    let mut a = [[0.0f64; D]; D];
    let mut b = [0.0f64; D];
    for (x, y) in xs.iter().zip(ys.iter()) {
        for i in 0..D {
            b[i] += x[i] * y;
            for j in 0..D {
                a[i][j] += x[i] * x[j];
            }
        }
    }
    // A feature that is identically zero in every sample (e.g. spill
    // traffic in the synthetic probe battery) carries no evidence: its
    // row/column of XᵀX is all zeros, and `b` is zero there too. Pin the
    // coefficient to exactly 0 by putting a 1 on the diagonal — the
    // system becomes block-diagonal in that column and solves to 0 —
    // instead of reporting a singular matrix. Genuinely collinear designs
    // (nonzero but dependent columns) still fail the pivot check below.
    for j in 0..D {
        if a[j][j] == 0.0 {
            a[j][j] = 1.0;
        }
    }
    // Scale columns for conditioning (features span ~10 orders).
    let mut scale = [1.0f64; D];
    for (j, s) in scale.iter_mut().enumerate() {
        let m = a[j][j].sqrt();
        if m > 0.0 {
            *s = 1.0 / m;
        }
    }
    for i in 0..D {
        for j in 0..D {
            a[i][j] *= scale[i] * scale[j];
        }
        b[i] *= scale[i];
    }
    // Gaussian elimination with partial pivoting.
    let mut aug = [[0.0f64; D + 1]; D];
    for i in 0..D {
        aug[i][..D].copy_from_slice(&a[i]);
        aug[i][D] = b[i];
    }
    for col in 0..D {
        let (pivot, max) = (col..D)
            .map(|r| (r, aug[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN"))
            .expect("non-empty");
        if max < 1e-12 {
            return Err(CoreError::Calibration(format!(
                "singular normal matrix at column {col}"
            )));
        }
        aug.swap(col, pivot);
        for row in 0..D {
            if row == col {
                continue;
            }
            let f = aug[row][col] / aug[col][col];
            for k in col..=D {
                aug[row][k] -= f * aug[col][k];
            }
        }
    }
    let mut c = [0.0f64; D];
    for i in 0..D {
        c[i] = aug[i][D] / aug[i][i] * scale[i];
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_cluster::instances::by_name;

    #[test]
    fn ols_recovers_exact_coefficients() {
        let truth = [2.0, 3.0, -1.0, 0.5, 4.0, 0.0, 1.5, -0.25];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        // Deterministic pseudo-random design.
        let mut state = 1u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..100 {
            let x = [1.0, next(), next(), next(), next(), next(), next(), next()];
            let y: f64 = truth.iter().zip(x.iter()).map(|(c, x)| c * x).sum();
            xs.push(x);
            ys.push(y);
        }
        let c = ols(&xs, &ys).unwrap();
        for (got, want) in c.iter().zip(truth.iter()) {
            assert!((got - want).abs() < 1e-8, "{c:?}");
        }
    }

    #[test]
    fn fit_samples_recovers_exact_model_with_zero_sigma() {
        let truth = [2.0, 3.0, -1.0, 0.5, 4.0, 0.0, 1.5, -0.25];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) + 0.1
        };
        for _ in 0..60 {
            let x = [1.0, next(), next(), next(), next(), next(), next(), next()];
            let y: f64 = truth.iter().zip(x.iter()).map(|(c, x)| c * x).sum();
            xs.push(x);
            ys.push(y);
        }
        let fit = fit_samples(&xs, &ys).unwrap();
        for (got, want) in fit.c.iter().zip(truth.iter()) {
            assert!((got - want).abs() < 1e-8, "{:?}", fit.c);
        }
        assert!(fit.sigma < 1e-6, "noise-free fit: sigma {}", fit.sigma);
    }

    #[test]
    fn ols_rejects_underdetermined() {
        assert!(ols(&[[1.0; 8]; 3], &[1.0, 2.0, 3.0]).is_err());
        // Degenerate (all-identical rows) is singular.
        assert!(ols(&[[1.0; 8]; 20], &[1.0; 20]).is_err());
    }

    #[test]
    fn refit_tracks_measured_kernel_rate() {
        let t = by_name("m1.large").unwrap();
        let base = OpCoefficients::idealized(&t, 2.0, 0.85);
        // Synthetic profile: kernels running at exactly 25 GFLOP/s.
        let rate = 25e9;
        let mut samples: Vec<KernelSample> = [128usize, 192, 256, 512]
            .iter()
            .map(|&n| {
                let flops = 2.0 * (n as f64).powi(3);
                KernelSample {
                    kernel: "gemm_packed",
                    n,
                    flops,
                    seconds: flops / rate,
                }
            })
            .collect();
        // A memory-bound sparse sample at 4 GFLOP/s must not drag the
        // dense marginal rate (it is excluded from the regression).
        samples.push(KernelSample {
            kernel: "spmm",
            n: 512,
            flops: 1.3e7,
            seconds: 1.3e7 / 4e9,
        });
        let profile = KernelProfile {
            simd_level: "test",
            samples,
        };
        let fit = refit_cpu_from_kernels(&base, &t, &profile).unwrap();
        // The CPU coefficient now implies the measured rate...
        let implied = 1.0 / (fit.c[1] * rate);
        assert!((implied - 1.0).abs() < 0.01, "implied/measured {implied}");
        // ...while startup and I/O coefficients still agree with base.
        assert!((fit.c[0] - base.c[0]).abs() < 0.01 * base.c[0].abs());
        for i in 2..8 {
            let rel = (fit.c[i] - base.c[i]).abs() / base.c[i].abs().max(1e-15);
            assert!(rel < 0.01, "coefficient {i}: {} vs {}", fit.c[i], base.c[i]);
        }
        // Best-of-reps timings carry no straggler signal: sigma is kept.
        assert_eq!(fit.sigma, base.sigma);
    }

    #[test]
    fn kernel_profile_measures_real_kernels() {
        let p = KernelProfile::measure(true);
        assert!(!p.simd_level.is_empty());
        assert!(p.samples.len() >= 4, "{} samples", p.samples.len());
        // Structure only, never a rate: this runs in the debug profile on
        // whatever host the suite lands on.
        for s in &p.samples {
            assert!(s.seconds.is_finite() && s.seconds > 0.0, "{s:?}");
            assert!(s.flops.is_finite() && s.flops > 0.0, "{s:?}");
        }
        let rate = p.dense_gflops();
        assert!(rate.is_finite() && rate > 0.0, "dense rate {rate}");
    }

    #[test]
    fn mem_penalty_kicks_in_over_capacity() {
        let t = by_name("c1.medium").unwrap(); // 1.7 GB
        assert_eq!(mem_penalty(&t, 2, 100.0), 1.0);
        let p = mem_penalty(&t, 2, 3_000.0);
        assert!(p > 10.0, "penalty {p}");
    }

    #[test]
    fn featurize_contention() {
        let t = by_name("m1.large").unwrap(); // 2 cores
        let f = TaskFeatures {
            flops: 1e9,
            local_read: 1e8,
            ..Default::default()
        };
        let x1 = featurize(&t, 1, &f);
        let x4 = featurize(&t, 4, &f);
        assert_eq!(x1[1], 1e9);
        assert_eq!(x4[1], 2e9, "4 slots on 2 cores doubles cpu feature");
        assert_eq!(x1[2], 1e8);
        assert_eq!(x4[2], 4e8, "disk share scales with slots");
    }

    #[test]
    fn calibration_fits_the_hardware() {
        let instance = by_name("m1.large").unwrap();
        let coeffs = calibrate_instance(&instance, &CalibrationConfig::default()).unwrap();
        // Compare with the closed-form (hardware-truth) coefficients. The
        // probe battery never spills, so the disk-tier column is pinned to
        // zero by the fit (c₇ comes from `refit_disk_tier` instead).
        let ideal = OpCoefficients::idealized(&instance, 2.0, 0.85);
        for (i, (got, want)) in coeffs.c.iter().zip(ideal.c.iter()).enumerate().take(7) {
            let rel = (got - want).abs() / want.abs().max(1e-12);
            assert!(rel < 0.15, "coef {i}: got {got}, want {want} (rel {rel})");
        }
        assert_eq!(coeffs.c[7], 0.0, "no spill evidence in the probe battery");
        // Straggler sigma recovered near the simulator's 0.08.
        assert!((coeffs.sigma - 0.08).abs() < 0.04, "sigma {}", coeffs.sigma);
    }

    #[test]
    fn calibrated_model_predicts_probe_times() {
        let instance = by_name("c1.xlarge").unwrap();
        let coeffs = calibrate_instance(&instance, &CalibrationConfig::default()).unwrap();
        let f = TaskFeatures {
            flops: 3e9,
            local_read: 2e8,
            remote_read: 1e8,
            local_write: 1e8,
            remote_write: 2e8,
            mem_mb: 100.0,
            io_ops: 64.0,
            spill_bytes: 0.0,
        };
        let pred = coeffs.predict(&instance, 4, &f);
        // Sanity band: seconds, not micro or kilo.
        assert!(pred > 1.0 && pred < 60.0, "pred {pred}");
    }

    #[test]
    fn ols_pins_unobserved_columns_to_zero() {
        // Design with the spill column identically zero: the fit must
        // succeed and return exactly 0 there, not fail as singular.
        let truth = [2.0, 3.0, -1.0, 0.5, 4.0, 0.0, 1.5, 0.0];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) + 0.1
        };
        for _ in 0..40 {
            let x = [1.0, next(), next(), next(), next(), next(), next(), 0.0];
            let y: f64 = truth.iter().zip(x.iter()).map(|(c, x)| c * x).sum();
            xs.push(x);
            ys.push(y);
        }
        let c = ols(&xs, &ys).unwrap();
        assert_eq!(c[7], 0.0, "unobserved column pinned: {c:?}");
        for (got, want) in c.iter().zip(truth.iter()).take(7) {
            assert!((got - want).abs() < 1e-8, "{c:?}");
        }
    }

    #[test]
    fn spill_profile_measures_blob_throughput() {
        let p = SpillProfile::measure(true).unwrap();
        assert!(p.bytes > 0, "probe moved no bytes");
        // Structure only, never a rate: the disk is whatever the shared
        // host gives this run.
        assert!(p.write_s.is_finite() && p.write_s > 0.0, "{p:?}");
        assert!(p.read_s.is_finite() && p.read_s > 0.0, "{p:?}");
    }

    #[test]
    fn refit_disk_tier_sets_only_the_spill_coefficient() {
        let t = by_name("m1.large").unwrap();
        let base = OpCoefficients::idealized(&t, 2.0, 0.85);
        let profile = SpillProfile {
            bytes: 64 << 20,
            write_s: 0.5,
            read_s: 0.25,
        };
        let fit = refit_disk_tier(&base, &profile);
        let want = 1.0 / profile.readback_bps();
        assert!((fit.c[7] - want).abs() < 1e-18, "c7 {}", fit.c[7]);
        for i in 0..7 {
            assert_eq!(fit.c[i], base.c[i], "coefficient {i} must not move");
        }
        assert_eq!(fit.sigma, base.sigma);
    }

    #[test]
    fn cost_model_container() {
        let i = by_name("m1.small").unwrap();
        let mut m = CostModel::single("m1.small", OpCoefficients::idealized(&i, 2.0, 0.85));
        assert!(m.for_instance("m1.small").is_some());
        assert!(m.for_instance("nope").is_none());
        m.insert("x", OpCoefficients::idealized(&i, 1.0, 0.9));
    }
}
