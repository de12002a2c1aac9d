//! Cluster construction: a typed fleet of nodes sharing a DFS.

use std::sync::atomic::{AtomicU32, Ordering};

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::{Dfs, DfsConfig, TileStore};

use crate::billing::BillingPolicy;
use crate::error::{ClusterError, Result};
use crate::hw::HardwareModel;
use crate::instances::{by_name, InstanceType};
use crate::job::{ExecMode, JobDag};
use crate::metrics::RunReport;
use crate::scheduler::{FailurePlan, RunFailure, Scheduler, SchedulerConfig};

/// A deployment choice: which instances, how many, how many task slots
/// each. This is exactly the (hardware, configuration) half of the
/// deployment-plan space the optimizer searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Instance type of every node (homogeneous clusters, as in the paper).
    pub instance: InstanceType,
    /// Number of nodes.
    pub nodes: u32,
    /// Concurrent task slots per node.
    pub slots_per_node: u32,
}

impl ClusterSpec {
    /// Builds a spec from a type name.
    pub fn named(instance: &str, nodes: u32, slots_per_node: u32) -> Result<Self> {
        let instance = by_name(instance).ok_or_else(|| {
            ClusterError::InvalidSpec(format!("unknown instance type {instance}"))
        })?;
        let spec = ClusterSpec {
            instance,
            nodes,
            slots_per_node,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates node and slot counts.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(ClusterError::InvalidSpec("nodes must be positive".into()));
        }
        if self.slots_per_node == 0 {
            return Err(ClusterError::InvalidSpec(
                "slots_per_node must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Total task slots across the cluster.
    pub fn total_slots(&self) -> u32 {
        self.nodes * self.slots_per_node
    }
}

/// A provisioned simulated cluster: spec + DFS + tile store + timing model.
///
/// The node count is elastic: [`Cluster::grow`] adds nodes mid-run (e.g.
/// on-demand replacements for revoked spot capacity) and
/// [`Cluster::shrink`] decommissions them gracefully. `nodes` in the spec
/// is the *id-space size* — nodes killed by failure injection stay dead
/// (their ids are never reused), so live capacity is
/// [`Cluster::live_nodes`].
pub struct Cluster {
    spec: ClusterSpec,
    /// Elastic node-id-space size; `spec.nodes` frozen at provision time,
    /// bumped by [`Cluster::grow`]. Atomic so growth works through the
    /// same `&self` the run methods take.
    nodes: AtomicU32,
    store: TileStore,
    hw: HardwareModel,
    billing: BillingPolicy,
}

impl Cluster {
    /// Provisions a cluster with a fresh DFS (replication 3 by default).
    pub fn provision(spec: ClusterSpec) -> Result<Self> {
        Self::provision_with(spec, HardwareModel::default(), DfsConfig::default())
    }

    /// Provisions with explicit hardware and DFS configuration.
    pub fn provision_with(
        spec: ClusterSpec,
        hw: HardwareModel,
        dfs_config: DfsConfig,
    ) -> Result<Self> {
        spec.validate()?;
        let dfs = Dfs::new(spec.nodes, dfs_config);
        Ok(Cluster {
            spec,
            nodes: AtomicU32::new(spec.nodes),
            store: TileStore::new(dfs),
            hw,
            billing: BillingPolicy::HourlyCeil,
        })
    }

    /// The deployment spec, with `nodes` reflecting any elastic growth.
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec {
            nodes: self.nodes.load(Ordering::SeqCst),
            ..self.spec
        }
    }

    /// Adds `n` fresh (empty) nodes to the cluster and DFS — elastic
    /// grow, e.g. on-demand replacements for revoked spot capacity.
    /// Returns the new node ids. Subsequent runs schedule onto them and
    /// the DFS places new replicas there.
    pub fn grow(&self, n: u32) -> Vec<u32> {
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ids.push(self.store.dfs().add_node().0);
        }
        // Id space = datanode count; keep the spec in lockstep with the
        // DFS rather than assuming they never diverged.
        self.nodes
            .store(self.store.dfs().node_count() as u32, Ordering::SeqCst);
        ids
    }

    /// Gracefully decommissions the `n` highest-id live nodes: their
    /// sole-replica blocks are first copied to survivors (so no data is
    /// lost even at replication 1), then the nodes leave the fleet. Their
    /// ids are retired, not reused. Returns the ids removed.
    pub fn shrink(&self, n: u32) -> Result<Vec<u32>> {
        let dfs = self.store.dfs();
        let mut live: Vec<u32> = (0..self.nodes.load(Ordering::SeqCst))
            .filter(|&i| dfs.is_node_live(NodeId(i)))
            .collect();
        if (n as usize) >= live.len() {
            return Err(ClusterError::InvalidSpec(format!(
                "cannot shrink by {n}: only {} live nodes",
                live.len()
            )));
        }
        let victims: Vec<u32> = live.split_off(live.len() - n as usize);
        let ids: Vec<NodeId> = victims.iter().map(|&i| NodeId(i)).collect();
        dfs.drain_nodes(&ids, u64::MAX)?;
        dfs.kill_nodes(&ids)?;
        Ok(victims)
    }

    /// Number of currently-live nodes (id-space size minus dead nodes).
    pub fn live_nodes(&self) -> u32 {
        let dfs = self.store.dfs();
        (0..self.nodes.load(Ordering::SeqCst))
            .filter(|&i| dfs.is_node_live(NodeId(i)))
            .count() as u32
    }

    /// The tile store (register inputs / fetch outputs here).
    pub fn store(&self) -> &TileStore {
        &self.store
    }

    /// Overrides the billing policy (default: hourly).
    pub fn set_billing(&mut self, policy: BillingPolicy) {
        self.billing = policy;
    }

    /// The billing policy in effect.
    pub fn billing(&self) -> BillingPolicy {
        self.billing
    }

    /// Runs a job DAG to completion, returning the run report.
    pub fn run(&self, dag: &JobDag, mode: ExecMode) -> Result<RunReport> {
        self.run_with(
            dag,
            mode,
            SchedulerConfig::default(),
            &FailurePlan::default(),
        )
    }

    /// Runs with explicit scheduler configuration and failure injection.
    pub fn run_with(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> Result<RunReport> {
        dag.validate()?;
        let scheduler = Scheduler::new(self.spec(), self.store.clone(), self.hw, self.billing);
        scheduler.run(dag, mode, config, failures)
    }

    /// Like [`Cluster::run_with`] but surfacing the structured
    /// [`RunFailure`] on error so a recovery driver can inspect lost
    /// blocks, dead nodes, and completed jobs.
    // The fat Err is the point: RunFailure carries the whole diagnostic
    // payload lineage recovery needs, and failures are rare.
    #[allow(clippy::result_large_err)]
    pub fn try_run_with(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> std::result::Result<RunReport, RunFailure> {
        self.try_run_with_traced(
            dag,
            mode,
            config,
            failures,
            &cumulon_trace::Trace::disabled(),
        )
    }

    /// Like [`Cluster::try_run_with`], recording every task attempt, job
    /// and fault event into `trace`. Tracing is observational only: the
    /// run's results, receipts and report are bitwise-identical whether
    /// the handle is enabled or [`cumulon_trace::Trace::disabled`].
    #[allow(clippy::result_large_err)]
    pub fn try_run_with_traced(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
        trace: &cumulon_trace::Trace,
    ) -> std::result::Result<RunReport, RunFailure> {
        let scheduler = Scheduler::new(self.spec(), self.store.clone(), self.hw, self.billing);
        scheduler.try_run_traced(dag, mode, config, failures, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_spec() {
        let s = ClusterSpec::named("m1.large", 4, 2).unwrap();
        assert_eq!(s.total_slots(), 8);
        assert!(ClusterSpec::named("no.such", 1, 1).is_err());
        assert!(ClusterSpec::named("m1.large", 0, 1).is_err());
        assert!(ClusterSpec::named("m1.large", 1, 0).is_err());
    }

    #[test]
    fn provision_exposes_parts() {
        let c = Cluster::provision(ClusterSpec::named("c1.medium", 2, 2).unwrap()).unwrap();
        assert_eq!(c.spec().nodes, 2);
        assert_eq!(c.store().dfs().node_count(), 2);
    }
}
