//! Run reports: what a simulated execution did and what it cost.

use serde::{Deserialize, Serialize};

use crate::job::TaskReceipt;

/// Statistics of one completed task (final successful attempt).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskStat {
    /// Index of the task within its job.
    pub task: usize,
    /// Node the successful attempt ran on.
    pub node: u32,
    /// Simulated start time (seconds).
    pub start_s: f64,
    /// Simulated end time (seconds).
    pub end_s: f64,
    /// Number of attempts consumed (1 = no retries).
    pub attempts: u32,
    /// Whether the dominant input was node-local.
    pub input_local: bool,
}

impl TaskStat {
    /// Task duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Statistics of one completed job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// Physical operator label (for calibration grouping).
    pub op_label: String,
    /// Earliest task start.
    pub start_s: f64,
    /// Latest task end.
    pub end_s: f64,
    /// Per-task stats.
    pub tasks: Vec<TaskStat>,
    /// Sum of task receipts (memory field holds the max).
    #[serde(skip)]
    pub receipt: TaskReceipt,
}

impl JobStats {
    /// Job span in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Mean task duration.
    pub fn mean_task_s(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(TaskStat::duration_s).sum::<f64>() / self.tasks.len() as f64
    }

    /// Fraction of tasks whose dominant input was node-local.
    pub fn locality_rate(&self) -> f64 {
        if self.tasks.is_empty() {
            return 1.0;
        }
        self.tasks.iter().filter(|t| t.input_local).count() as f64 / self.tasks.len() as f64
    }

    /// Total retries across tasks.
    pub fn retries(&self) -> u32 {
        self.tasks
            .iter()
            .map(|t| t.attempts.saturating_sub(1))
            .sum()
    }
}

/// Fault-related counters for one run (or one recovery round). All zeros
/// on a failure-free run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Task attempts launched, including retries and speculative copies.
    pub task_attempts: u64,
    /// Retry attempts (attempts beyond the first, speculation excluded).
    pub retries: u64,
    /// Speculative (backup) copies launched for stragglers.
    pub speculative_launches: u64,
    /// Speculative copies that finished before the original attempt.
    pub speculative_wins: u64,
    /// Nodes that died during the run.
    pub node_deaths: u64,
    /// Bytes copied to restore replication after node deaths.
    pub rereplicated_bytes: u64,
    /// Distinct `BlockLost` errors observed by task attempts.
    pub lost_block_events: u64,
    /// Jobs re-executed (fully or partially) by lineage recovery.
    pub recovered_jobs: u64,
    /// Correlated bulk spot revocations that claimed at least one node.
    pub revocations: u64,
    /// Nodes reclaimed by spot revocations (not counted in `node_deaths`).
    pub revoked_nodes: u64,
    /// Task attempts on doomed nodes that finished inside a revocation
    /// warning window (gracefully drained rather than lost).
    pub drained_tasks: u64,
    /// In-flight task attempts killed by revocations and re-executed.
    pub lost_tasks: u64,
    /// Sole-replica bytes proactively copied off doomed nodes during
    /// revocation warning windows.
    pub drained_bytes: u64,
    /// Simulated task-seconds spent re-executing work (retries, backup
    /// copies, recovery rounds).
    pub rework_task_s: f64,
    /// Simulated task-seconds across all attempts (the rework
    /// denominator; nonzero even on clean runs).
    pub total_task_s: f64,
}

impl FaultStats {
    /// Component-wise sum, for merging recovery rounds into one report.
    pub fn merge(&mut self, other: &FaultStats) {
        self.task_attempts += other.task_attempts;
        self.retries += other.retries;
        self.speculative_launches += other.speculative_launches;
        self.speculative_wins += other.speculative_wins;
        self.node_deaths += other.node_deaths;
        self.rereplicated_bytes += other.rereplicated_bytes;
        self.lost_block_events += other.lost_block_events;
        self.recovered_jobs += other.recovered_jobs;
        self.revocations += other.revocations;
        self.revoked_nodes += other.revoked_nodes;
        self.drained_tasks += other.drained_tasks;
        self.lost_tasks += other.lost_tasks;
        self.drained_bytes += other.drained_bytes;
        self.rework_task_s += other.rework_task_s;
        self.total_task_s += other.total_task_s;
    }

    /// True when nothing fault-related happened.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.speculative_launches == 0
            && self.node_deaths == 0
            && self.rereplicated_bytes == 0
            && self.lost_block_events == 0
            && self.recovered_jobs == 0
            && self.revocations == 0
            && self.revoked_nodes == 0
            && self.drained_tasks == 0
            && self.lost_tasks == 0
            && self.drained_bytes == 0
            && self.rework_task_s == 0.0
    }

    /// Re-executed task-seconds as a fraction of all task-seconds
    /// (0 when no work ran at all).
    pub(crate) fn rework_ratio(&self) -> f64 {
        if self.total_task_s <= 0.0 {
            return 0.0;
        }
        self.rework_task_s / self.total_task_s
    }
}

/// A full program run on one deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Instance type name.
    pub instance: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Task slots per node.
    pub slots: u32,
    /// Per-job statistics, in completion order.
    pub jobs: Vec<JobStats>,
    /// End-to-end simulated makespan in seconds.
    pub makespan_s: f64,
    /// Billed hours.
    pub billed_hours: f64,
    /// Dollar cost.
    pub cost_dollars: f64,
    /// Fault counters (retries, speculation, node deaths, recovery).
    #[serde(default)]
    pub faults: FaultStats,
}

impl RunReport {
    /// Looks up a job's stats by name.
    pub fn job(&self, name: &str) -> Option<&JobStats> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Total tasks executed.
    pub fn total_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.tasks.len()).sum()
    }

    /// Task-weighted locality rate across all jobs: the fraction of
    /// completed tasks whose dominant input was node-local. `1.0` when
    /// the run had no tasks (nothing could have been remote).
    pub fn locality_rate(&self) -> f64 {
        let total = self.total_tasks();
        if total == 0 {
            return 1.0;
        }
        let local: usize = self
            .jobs
            .iter()
            .map(|j| j.tasks.iter().filter(|t| t.input_local).count())
            .sum();
        local as f64 / total as f64
    }

    /// Human-readable one-line summary, including the run's locality
    /// rate. Fault counters are appended only when something
    /// fault-related actually happened (format pinned by unit test).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} x{} ({} slots): {} jobs, {} tasks, locality {:.0}%, makespan {:.1}s, {:.0} billed h, ${:.2}",
            self.instance,
            self.nodes,
            self.slots,
            self.jobs.len(),
            self.total_tasks(),
            self.locality_rate() * 100.0,
            self.makespan_s,
            self.billed_hours,
            self.cost_dollars
        );
        if !self.faults.is_clean() {
            let f = &self.faults;
            line.push_str(&format!(
                " [faults: {} retries, {} spec ({} won), {} node deaths, {} B re-replicated, {} lost blocks, {} jobs recovered",
                f.retries,
                f.speculative_launches,
                f.speculative_wins,
                f.node_deaths,
                f.rereplicated_bytes,
                f.lost_block_events,
                f.recovered_jobs
            ));
            if f.revocations > 0 {
                line.push_str(&format!(
                    ", {} revocations ({} nodes, {} drained/{} lost tasks, {} B drained)",
                    f.revocations, f.revoked_nodes, f.drained_tasks, f.lost_tasks, f.drained_bytes
                ));
            }
            if f.rework_task_s > 0.0 {
                line.push_str(&format!(", rework {:.0}%", f.rework_ratio() * 100.0));
            }
            line.push(']');
        }
        line
    }

    /// Canonical fingerprint of the run: every float by bit pattern, every
    /// counter verbatim. Two runs match iff their fingerprints are equal —
    /// the identity the bench gate and `cumulon check` enforce across
    /// observationally-equivalent configurations (thread counts, payload
    /// planes, tracing).
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "mk{:016x} bh{:016x} $ {:016x} {:?}\n",
            self.makespan_s.to_bits(),
            self.billed_hours.to_bits(),
            self.cost_dollars.to_bits(),
            self.faults,
        );
        for j in &self.jobs {
            let _ = write!(
                s,
                "{} [{:016x}-{:016x}] r({:016x},{},{},{:016x},{:016x},{})",
                j.name,
                j.start_s.to_bits(),
                j.end_s.to_bits(),
                j.receipt.work.flops.to_bits(),
                j.receipt.read.bytes,
                j.receipt.write.bytes,
                j.receipt.mem_mb.to_bits(),
                j.receipt.fixed_s.to_bits(),
                j.receipt.io_ops,
            );
            for t in &j.tasks {
                let _ = write!(
                    s,
                    " {}@{}[{:016x}-{:016x}]x{}",
                    t.task,
                    t.node,
                    t.start_s.to_bits(),
                    t.end_s.to_bits(),
                    t.attempts
                );
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> JobStats {
        JobStats {
            name: "mul#0".into(),
            op_label: "mul".into(),
            start_s: 0.0,
            end_s: 10.0,
            tasks: vec![
                TaskStat {
                    task: 0,
                    node: 0,
                    start_s: 0.0,
                    end_s: 4.0,
                    attempts: 1,
                    input_local: true,
                },
                TaskStat {
                    task: 1,
                    node: 1,
                    start_s: 0.0,
                    end_s: 10.0,
                    attempts: 2,
                    input_local: false,
                },
            ],
            receipt: TaskReceipt::default(),
        }
    }

    #[test]
    fn job_aggregates() {
        let s = stats();
        assert_eq!(s.duration_s(), 10.0);
        assert_eq!(s.mean_task_s(), 7.0);
        assert_eq!(s.locality_rate(), 0.5);
        assert_eq!(s.retries(), 1);
    }

    #[test]
    fn empty_job_defaults() {
        let s = JobStats {
            name: "x".into(),
            op_label: "x".into(),
            start_s: 0.0,
            end_s: 0.0,
            tasks: vec![],
            receipt: TaskReceipt::default(),
        };
        assert_eq!(s.mean_task_s(), 0.0);
        assert_eq!(s.locality_rate(), 1.0);
    }

    #[test]
    fn report_lookup_and_summary() {
        let r = RunReport {
            instance: "m1.large".into(),
            nodes: 4,
            slots: 2,
            jobs: vec![stats()],
            makespan_s: 10.0,
            billed_hours: 1.0,
            cost_dollars: 0.96,
            faults: FaultStats::default(),
        };
        assert!(r.job("mul#0").is_some());
        assert!(r.job("nope").is_none());
        assert_eq!(r.total_tasks(), 2);
        assert!(r.summary().contains("m1.large x4"));
        assert!(
            !r.summary().contains("faults"),
            "clean run should not print fault counters"
        );
    }

    #[test]
    fn fault_stats_merge_and_summary() {
        let mut a = FaultStats {
            retries: 2,
            node_deaths: 1,
            ..Default::default()
        };
        let b = FaultStats {
            retries: 1,
            speculative_launches: 3,
            speculative_wins: 1,
            rereplicated_bytes: 4096,
            lost_block_events: 2,
            recovered_jobs: 1,
            task_attempts: 10,
            node_deaths: 0,
            revocations: 1,
            revoked_nodes: 2,
            drained_tasks: 3,
            lost_tasks: 1,
            drained_bytes: 512,
            rework_task_s: 5.0,
            total_task_s: 20.0,
        };
        a.merge(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.speculative_wins, 1);
        assert_eq!(a.node_deaths, 1);
        assert_eq!(a.task_attempts, 10);
        assert_eq!(a.revocations, 1);
        assert_eq!(a.revoked_nodes, 2);
        assert_eq!(a.drained_tasks, 3);
        assert_eq!(a.lost_tasks, 1);
        assert_eq!(a.drained_bytes, 512);
        assert_eq!(a.rework_task_s, 5.0);
        assert_eq!(a.total_task_s, 20.0);
        assert_eq!(a.rework_ratio(), 0.25);
        assert!(!a.is_clean());
        assert!(FaultStats::default().is_clean());
        let clean_with_work = FaultStats {
            task_attempts: 4,
            total_task_s: 40.0,
            ..Default::default()
        };
        assert!(
            clean_with_work.is_clean(),
            "total task-seconds accumulate on clean runs too"
        );
        assert_eq!(clean_with_work.rework_ratio(), 0.0);

        let r = RunReport {
            instance: "m1.large".into(),
            nodes: 4,
            slots: 2,
            jobs: vec![stats()],
            makespan_s: 10.0,
            billed_hours: 1.0,
            cost_dollars: 0.96,
            faults: a,
        };
        let s = r.summary();
        assert!(s.contains("3 retries"));
        assert!(s.contains("1 node deaths"));
        assert!(s.contains("1 jobs recovered"));
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let r = RunReport {
            instance: "m1.large".into(),
            nodes: 4,
            slots: 2,
            jobs: vec![stats()],
            makespan_s: 10.0,
            billed_hours: 1.0,
            cost_dollars: 0.96,
            faults: FaultStats::default(),
        };
        assert_eq!(r.fingerprint(), r.clone().fingerprint());
        let mut nudged = r.clone();
        nudged.makespan_s = f64::from_bits(r.makespan_s.to_bits() + 1);
        assert_ne!(
            r.fingerprint(),
            nudged.fingerprint(),
            "a one-ULP drift must change the fingerprint"
        );
        let mut retried = r;
        retried.jobs[0].tasks[0].attempts += 1;
        assert_ne!(retried.fingerprint(), nudged.fingerprint());
    }

    #[test]
    fn report_locality_rate() {
        let r = RunReport {
            instance: "m1.large".into(),
            nodes: 4,
            slots: 2,
            jobs: vec![stats(), stats()],
            makespan_s: 10.0,
            billed_hours: 1.0,
            cost_dollars: 0.96,
            faults: FaultStats::default(),
        };
        // Each stats() job is 1 local / 2 tasks.
        assert_eq!(r.locality_rate(), 0.5);
        let empty = RunReport {
            jobs: vec![],
            ..r.clone()
        };
        assert_eq!(empty.locality_rate(), 1.0);
    }

    #[test]
    fn summary_format_is_pinned() {
        let clean = RunReport {
            instance: "m1.large".into(),
            nodes: 4,
            slots: 2,
            jobs: vec![stats()],
            makespan_s: 10.0,
            billed_hours: 1.0,
            cost_dollars: 0.96,
            faults: FaultStats::default(),
        };
        assert_eq!(
            clean.summary(),
            "m1.large x4 (2 slots): 1 jobs, 2 tasks, locality 50%, \
             makespan 10.0s, 1 billed h, $0.96"
        );

        let faulted = RunReport {
            faults: FaultStats {
                task_attempts: 10,
                retries: 3,
                speculative_launches: 3,
                speculative_wins: 1,
                node_deaths: 1,
                rereplicated_bytes: 4096,
                lost_block_events: 2,
                recovered_jobs: 1,
                ..Default::default()
            },
            ..clean.clone()
        };
        assert_eq!(
            faulted.summary(),
            "m1.large x4 (2 slots): 1 jobs, 2 tasks, locality 50%, \
             makespan 10.0s, 1 billed h, $0.96 \
             [faults: 3 retries, 3 spec (1 won), 1 node deaths, \
             4096 B re-replicated, 2 lost blocks, 1 jobs recovered]"
        );

        let revoked = RunReport {
            faults: FaultStats {
                task_attempts: 12,
                retries: 2,
                revocations: 1,
                revoked_nodes: 2,
                drained_tasks: 3,
                lost_tasks: 1,
                drained_bytes: 512,
                rereplicated_bytes: 4096,
                rework_task_s: 5.0,
                total_task_s: 20.0,
                ..Default::default()
            },
            ..clean
        };
        assert_eq!(
            revoked.summary(),
            "m1.large x4 (2 slots): 1 jobs, 2 tasks, locality 50%, \
             makespan 10.0s, 1 billed h, $0.96 \
             [faults: 2 retries, 0 spec (0 won), 0 node deaths, \
             4096 B re-replicated, 0 lost blocks, 0 jobs recovered, \
             1 revocations (2 nodes, 3 drained/1 lost tasks, 512 B drained), \
             rework 25%]"
        );
    }
}
