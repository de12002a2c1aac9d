//! The hardware timing model: task receipts → simulated seconds.
//!
//! This is the "ground truth" the optimizer's fitted cost models try to
//! predict. It charges:
//!
//! * a fixed per-task startup (Hadoop task-launch overhead);
//! * CPU time at the per-core kernel rate, degraded when slots
//!   oversubscribe cores;
//! * disk time for node-local DFS bytes at the node's disk bandwidth
//!   divided by the configured slot count (slots contend);
//! * network time for remote DFS bytes, likewise shared;
//! * a super-linear *memory-pressure* penalty on I/O when the concurrent
//!   tasks' working sets exceed node memory (spilling) — this is what
//!   bounds the useful slot count and split size, exactly the knobs the
//!   paper's optimizer tunes;
//! * a seeded lognormal noise factor modelling stragglers.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::instances::InstanceType;
use crate::job::TaskReceipt;

/// Deterministic straggler noise: lognormal multiplicative factor keyed by
/// `(job, task, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Sigma of the underlying normal; 0 disables noise.
    pub sigma: f64,
    /// Base seed.
    pub seed: u64,
}

impl NoiseModel {
    /// No noise (deterministic task times).
    pub fn none() -> Self {
        NoiseModel {
            sigma: 0.0,
            seed: 0,
        }
    }

    /// Typical mild straggler distribution.
    pub fn standard(seed: u64) -> Self {
        NoiseModel { sigma: 0.08, seed }
    }

    /// Multiplicative factor for an attempt. Mean-one lognormal: the
    /// underlying normal is centred at `-sigma²/2`.
    pub(crate) fn factor(&self, job: usize, task: usize, attempt: u32) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let key = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job as u64) << 40)
            .wrapping_add((task as u64) << 8)
            .wrapping_add(attempt as u64);
        let mut rng = StdRng::seed_from_u64(key);
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0f64..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.sigma * z - self.sigma * self.sigma / 2.0).exp()
    }
}

/// Fixed hardware/framework constants of the simulated stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Per-task launch overhead in seconds (JVM spin-up and friends).
    pub task_startup_s: f64,
    /// Per-DFS-file-operation overhead in seconds (namenode round trip,
    /// open, seek). This is what makes very small tiles expensive.
    pub io_op_overhead_s: f64,
    /// Fraction of peak GFLOP/s our kernels achieve (dense GEMM
    /// efficiency).
    pub cpu_efficiency: f64,
    /// Framework memory floor per concurrent task, MB.
    pub task_mem_floor_mb: f64,
    /// Exponent of the memory-pressure penalty (≥ 1; applied to I/O when
    /// demand exceeds capacity).
    pub mem_penalty_exp: f64,
    /// Straggler noise.
    pub noise: NoiseModel,
}

impl Default for HardwareModel {
    fn default() -> Self {
        HardwareModel {
            task_startup_s: 2.0,
            io_op_overhead_s: 0.02,
            cpu_efficiency: 0.85,
            task_mem_floor_mb: 200.0,
            mem_penalty_exp: 2.0,
            noise: NoiseModel::standard(0x00c0_ffee),
        }
    }
}

impl HardwareModel {
    /// Deterministic (noise-free) duration of a task attempt, in seconds.
    ///
    /// `slots` is the configured concurrency per node — bandwidth shares
    /// and memory pressure are computed against the full slot complement,
    /// matching how Hadoop provisions per-slot resources statically.
    pub(crate) fn task_seconds_base(
        &self,
        instance: &InstanceType,
        slots: u32,
        receipt: &TaskReceipt,
    ) -> f64 {
        let slots = slots.max(1);
        // --- CPU ---------------------------------------------------------
        let core_share = (instance.cores as f64 / slots as f64).min(1.0);
        let gflops = instance.gflops_per_core * core_share * self.cpu_efficiency;
        let cpu_s = receipt.work.flops / (gflops * 1e9);

        // --- I/O ----------------------------------------------------------
        let disk_read_bps = instance.disk_read_mbs * 1e6 / slots as f64;
        let disk_write_bps = instance.disk_write_mbs * 1e6 / slots as f64;
        let net_bps = instance.net_mbs * 1e6 / slots as f64;
        let read_s = receipt.read.local_bytes as f64 / disk_read_bps
            + receipt.read.remote_bytes as f64 / net_bps;
        // Local replica hits the disk; remote replicas cross the network.
        let write_s = receipt.write.local_bytes as f64 / disk_write_bps
            + receipt.write.remote_bytes as f64 / net_bps;

        // --- Memory pressure ----------------------------------------------
        let demand_mb = slots as f64 * (receipt.mem_mb + self.task_mem_floor_mb);
        let pressure = demand_mb / instance.memory_mb as f64;
        let io_penalty = if pressure > 1.0 {
            pressure.powf(self.mem_penalty_exp)
        } else {
            1.0
        };

        self.task_startup_s
            + receipt.fixed_s
            + receipt.io_ops as f64 * self.io_op_overhead_s
            + cpu_s
            + (read_s + write_s) * io_penalty
    }

    /// Noise-free split of [`Self::task_seconds_base`] into execution
    /// phases: task launch (startup, reported on its own so a one-wave
    /// plan's constant launch cost is not misread as executor
    /// inefficiency), per-op overhead (op-fixed seconds + IO-op
    /// latency), kernel compute, and penalized read/write time. The
    /// components sum to the base duration up to floating-point rounding;
    /// trace consumers rescale them to an attempt's *actual* (noisy)
    /// duration via [`cumulon_trace::PhaseBreakdown::scaled_to`], so the
    /// per-phase attribution always reproduces observed span totals.
    pub(crate) fn task_phases(
        &self,
        instance: &InstanceType,
        slots: u32,
        receipt: &TaskReceipt,
    ) -> cumulon_trace::PhaseBreakdown {
        let slots = slots.max(1);
        let core_share = (instance.cores as f64 / slots as f64).min(1.0);
        let gflops = instance.gflops_per_core * core_share * self.cpu_efficiency;
        let cpu_s = receipt.work.flops / (gflops * 1e9);
        let disk_read_bps = instance.disk_read_mbs * 1e6 / slots as f64;
        let disk_write_bps = instance.disk_write_mbs * 1e6 / slots as f64;
        let net_bps = instance.net_mbs * 1e6 / slots as f64;
        let read_s = receipt.read.local_bytes as f64 / disk_read_bps
            + receipt.read.remote_bytes as f64 / net_bps;
        let write_s = receipt.write.local_bytes as f64 / disk_write_bps
            + receipt.write.remote_bytes as f64 / net_bps;
        let demand_mb = slots as f64 * (receipt.mem_mb + self.task_mem_floor_mb);
        let pressure = demand_mb / instance.memory_mb as f64;
        let io_penalty = if pressure > 1.0 {
            pressure.powf(self.mem_penalty_exp)
        } else {
            1.0
        };
        cumulon_trace::PhaseBreakdown {
            compute_s: cpu_s,
            read_s: read_s * io_penalty,
            write_s: write_s * io_penalty,
            startup_s: self.task_startup_s,
            overhead_s: receipt.fixed_s + receipt.io_ops as f64 * self.io_op_overhead_s,
        }
    }

    /// Duration including straggler noise for a specific attempt.
    pub(crate) fn task_seconds(
        &self,
        instance: &InstanceType,
        slots: u32,
        receipt: &TaskReceipt,
        job: usize,
        task: usize,
        attempt: u32,
    ) -> f64 {
        self.task_seconds_base(instance, slots, receipt) * self.noise.factor(job, task, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::by_name;
    use cumulon_dfs::IoReceipt;
    use cumulon_matrix::ops::Work;

    fn receipt(flops: f64, local_read: u64, remote_read: u64, write: u64, mem: f64) -> TaskReceipt {
        TaskReceipt {
            work: Work {
                flops,
                bytes_in: 0.0,
                bytes_out: 0.0,
            },
            read: IoReceipt {
                bytes: local_read + remote_read,
                local_bytes: local_read,
                remote_bytes: remote_read,
            },
            write: IoReceipt {
                bytes: write,
                local_bytes: write,
                remote_bytes: 0,
            },
            mem_mb: mem,
            fixed_s: 0.0,
            io_ops: 0,
        }
    }

    fn hw() -> HardwareModel {
        HardwareModel {
            noise: NoiseModel::none(),
            ..Default::default()
        }
    }

    #[test]
    fn startup_only_for_empty_task() {
        let t = by_name("m1.large").unwrap();
        let s = hw().task_seconds_base(&t, 2, &TaskReceipt::default());
        assert_eq!(s, 2.0);
    }

    #[test]
    fn cpu_time_scales_with_flops() {
        let t = by_name("m1.large").unwrap();
        let h = hw();
        let s1 = h.task_seconds_base(&t, 1, &receipt(1e9, 0, 0, 0, 0.0));
        let s2 = h.task_seconds_base(&t, 1, &receipt(2e9, 0, 0, 0, 0.0));
        assert!((s2 - h.task_startup_s) / (s1 - h.task_startup_s) > 1.99);
    }

    #[test]
    fn oversubscription_slows_cpu() {
        let t = by_name("m1.large").unwrap(); // 2 cores
        let h = hw();
        let r = receipt(1e10, 0, 0, 0, 0.0);
        let at2 = h.task_seconds_base(&t, 2, &r);
        let at4 = h.task_seconds_base(&t, 4, &r);
        assert!(
            at4 > 1.9 * (at2 - h.task_startup_s),
            "4 slots on 2 cores halves per-task speed"
        );
    }

    #[test]
    fn remote_reads_cost_more_than_local() {
        let t = by_name("m1.small").unwrap(); // disk 60 MB/s, net 40 MB/s
        let h = hw();
        let local = h.task_seconds_base(&t, 1, &receipt(0.0, 600_000_000, 0, 0, 0.0));
        let remote = h.task_seconds_base(&t, 1, &receipt(0.0, 0, 600_000_000, 0, 0.0));
        assert!(
            remote > local,
            "remote {remote} should exceed local {local}"
        );
    }

    #[test]
    fn io_contention_scales_with_slots() {
        let t = by_name("c1.xlarge").unwrap();
        let h = hw();
        let r = receipt(0.0, 1_000_000_000, 0, 0, 0.0);
        let s1 = h.task_seconds_base(&t, 1, &r) - h.task_startup_s;
        let s4 = h.task_seconds_base(&t, 4, &r) - h.task_startup_s;
        assert!((s4 / s1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn memory_pressure_penalises_io() {
        let t = by_name("c1.medium").unwrap(); // 1.7 GB
        let h = hw();
        let light = receipt(0.0, 100_000_000, 0, 0, 100.0);
        let heavy = receipt(0.0, 100_000_000, 0, 0, 3_000.0); // 2 slots × 3.2GB >> 1.7GB
        let s_light = h.task_seconds_base(&t, 2, &light);
        let s_heavy = h.task_seconds_base(&t, 2, &heavy);
        assert!(s_heavy > 5.0 * s_light, "{s_heavy} vs {s_light}");
    }

    #[test]
    fn task_phases_sum_to_base_duration() {
        let t = by_name("m1.large").unwrap();
        let h = hw();
        let mut r = receipt(3e9, 200_000_000, 50_000_000, 100_000_000, 500.0);
        r.fixed_s = 0.5;
        r.io_ops = 7;
        for slots in [1u32, 2, 4] {
            let base = h.task_seconds_base(&t, slots, &r);
            let phases = h.task_phases(&t, slots, &r);
            assert!(
                (phases.total_s() - base).abs() < 1e-9 * base,
                "slots={slots}: {} vs {base}",
                phases.total_s()
            );
            assert!(phases.compute_s > 0.0 && phases.read_s > 0.0 && phases.write_s > 0.0);
        }
    }

    /// Launch cost is its own phase: the constant `task_startup_s` lands
    /// in `startup_s`, never in `overhead_s` (which holds only the
    /// work-proportional fixed seconds and IO-op latency). Pins the
    /// attribution bug where a one-wave plan's single 2s launch was
    /// reported as 66% executor "overhead".
    #[test]
    fn task_phases_separate_startup_from_overhead() {
        let t = by_name("m1.large").unwrap();
        let h = hw();
        let mut r = receipt(3e9, 200_000_000, 0, 100_000_000, 500.0);
        r.fixed_s = 0.5;
        r.io_ops = 7;
        let phases = h.task_phases(&t, 2, &r);
        assert_eq!(phases.startup_s, h.task_startup_s);
        let expected_overhead = r.fixed_s + r.io_ops as f64 * h.io_op_overhead_s;
        assert!(
            (phases.overhead_s - expected_overhead).abs() < 1e-12,
            "overhead {} vs {expected_overhead}",
            phases.overhead_s
        );
        // An empty task is pure launch: zero overhead, full startup.
        let empty = h.task_phases(&t, 2, &TaskReceipt::default());
        assert_eq!(empty.startup_s, h.task_startup_s);
        assert_eq!(empty.overhead_s, 0.0);
    }

    #[test]
    fn noise_mean_close_to_one() {
        let n = NoiseModel::standard(42);
        let mean: f64 = (0..4000).map(|i| n.factor(0, i, 0)).sum::<f64>() / 4000.0;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn noise_deterministic_per_key() {
        let n = NoiseModel::standard(42);
        assert_eq!(n.factor(1, 2, 0), n.factor(1, 2, 0));
        assert_ne!(n.factor(1, 2, 0), n.factor(1, 2, 1));
        assert_ne!(n.factor(1, 2, 0), n.factor(1, 3, 0));
    }

    #[test]
    fn no_noise_is_exactly_one() {
        assert_eq!(NoiseModel::none().factor(5, 6, 7), 1.0);
    }

    #[test]
    fn faster_instance_is_faster() {
        let h = hw();
        let small = by_name("m1.small").unwrap();
        let big = by_name("cc2.8xlarge").unwrap();
        let r = receipt(1e10, 1_000_000_000, 0, 0, 0.0);
        assert!(h.task_seconds_base(&big, 1, &r) < h.task_seconds_base(&small, 1, &r));
    }
}
