//! Fault injection as the DES loop sees it: node failures, revocation
//! warnings and bulk revocations, and the eviction of attempts that were
//! running on a node that died.

use cumulon_dfs::dfs::NodeId;
use cumulon_trace::TraceEvent;

use crate::des::{EventQueue, SimTime};
use crate::error::{ClusterError, Result};

use super::{Event, Exec};

impl Exec<'_> {
    pub(super) fn on_node_failure(
        &mut self,
        node: u32,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        // A plan may name a node this cluster doesn't have (e.g. a market
        // model sized for a larger fleet, or an elastic shrink between
        // iterations); ignore it rather than index out of bounds.
        if (node as usize) >= self.node_alive.len() || !self.node_alive[node as usize] {
            return Ok(());
        }
        self.node_alive[node as usize] = false;
        self.doomed[node as usize] = false;
        self.faults.node_deaths += 1;
        self.dead_nodes.push(node);
        // Storage consequences (re-replication of survivors).
        match self.sched.store.dfs().kill_node(NodeId(node)) {
            Ok(receipt) => {
                self.faults.rereplicated_bytes += receipt.bytes;
                self.trace.record_event(TraceEvent::NodeFailure {
                    t_s: queue.now().secs(),
                    node: node as usize,
                    rereplicated_bytes: receipt.bytes,
                });
            }
            Err(e) => return Err(ClusterError::from(e)),
        }
        self.evict_running(node, queue.now(), false);
        if !self.node_alive.iter().any(|&a| a) {
            return Err(ClusterError::InvalidDag(
                "all nodes failed; run cannot complete".to_string(),
            ));
        }
        self.fill_slots(queue)
    }

    /// Kills every attempt in flight on `node`: traces the truncated spans
    /// and requeues tasks that are neither done nor running elsewhere.
    /// `revoked` attributes the loss to a spot revocation in the counters.
    fn evict_running(&mut self, node: u32, now: SimTime, revoked: bool) {
        let slots = self.sched.spec.slots_per_node;
        for slot in 0..slots {
            let idx = (node * slots + slot) as usize;
            if let Some(r) = self.slot_state[idx].take() {
                if revoked {
                    self.faults.lost_tasks += 1;
                }
                self.record_span(idx, &r, now, false, true);
                if !self.jobs[r.job].task_done[r.task] && !self.twin_running(r.job, r.task) {
                    self.jobs[r.job].pending.push_front(r.task);
                }
            }
        }
    }

    /// Revocation warning: mark the victims doomed (no new assignments;
    /// in-flight attempts drain) and spend the lead window proactively
    /// copying blocks that live only on doomed nodes to survivors, within
    /// the byte budget the victims' aggregate NIC bandwidth allows.
    pub(super) fn on_revocation_warning(
        &mut self,
        idx: usize,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let rev = &self.failures.revocations[idx];
        let lead_s = rev.warning_lead_s;
        let mut victims: Vec<NodeId> = Vec::new();
        for &node in &rev.nodes {
            let n = node as usize;
            if n >= self.node_alive.len() || !self.node_alive[n] || self.doomed[n] {
                continue;
            }
            self.doomed[n] = true;
            victims.push(NodeId(node));
        }
        if victims.is_empty() {
            return Ok(());
        }
        let budget =
            (lead_s * self.sched.spec.instance.net_mbs * 1e6 * victims.len() as f64) as u64;
        let receipt = self
            .sched
            .store
            .dfs()
            .drain_nodes(&victims, budget)
            .map_err(ClusterError::from)?;
        self.faults.drained_bytes += receipt.bytes;
        self.trace.record_event(TraceEvent::RevocationWarning {
            t_s: queue.now().secs(),
            nodes: victims.iter().map(|n| n.0 as usize).collect(),
            drained_bytes: receipt.bytes,
        });
        Ok(())
    }

    /// A bulk revocation takes effect: every still-live victim dies at the
    /// same instant (one correlated DFS event, so re-replication cannot
    /// lean on co-revoked peers), their in-flight attempts are lost, and
    /// survivors pick up the requeued work.
    pub(super) fn on_revocation(
        &mut self,
        idx: usize,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let rev = &self.failures.revocations[idx];
        let mut victims: Vec<u32> = Vec::new();
        for &node in &rev.nodes {
            let n = node as usize;
            if n >= self.node_alive.len() || !self.node_alive[n] {
                continue;
            }
            if !victims.contains(&node) {
                victims.push(node);
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        self.faults.revocations += 1;
        self.faults.revoked_nodes += victims.len() as u64;
        for &node in &victims {
            self.node_alive[node as usize] = false;
            self.doomed[node as usize] = false;
            self.dead_nodes.push(node);
        }
        let ids: Vec<NodeId> = victims.iter().map(|&n| NodeId(n)).collect();
        match self.sched.store.dfs().kill_nodes(&ids) {
            Ok(receipt) => {
                self.faults.rereplicated_bytes += receipt.bytes;
                self.trace.record_event(TraceEvent::Revocation {
                    t_s: queue.now().secs(),
                    nodes: victims.iter().map(|&n| n as usize).collect(),
                    rereplicated_bytes: receipt.bytes,
                });
            }
            Err(e) => return Err(ClusterError::from(e)),
        }
        for &node in &victims {
            self.evict_running(node, queue.now(), true);
        }
        if !self.node_alive.iter().any(|&a| a) {
            return Err(ClusterError::InvalidDag(
                "all nodes failed; run cannot complete".to_string(),
            ));
        }
        self.fill_slots(queue)
    }
}
