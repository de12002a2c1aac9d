//! The DFS façade: files of blocks with replica placement and I/O receipts.
//!
//! A file holds one tile ([`Dfs::write_tile_file`]): every block replica
//! shares the tile's `Arc` and is charged the slice of its wire length
//! the block would carry (see `crate::datanode::BlockPayload`), so
//! placement, block splitting, replica bookkeeping and receipts price the
//! encoding a real DFS would store without the encoding being made. The
//! only bytes that exist are the spill plane's, on disk.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use cumulon_matrix::compress::{decompress, maybe_compress, Codec};
use cumulon_matrix::serialize::{decode_tile, encode_tile};
use cumulon_matrix::Tile;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::blob::BlobKey;
use crate::datanode::{BlockId, BlockPayload, DataNode};
use crate::error::{DfsError, Result};
use crate::namenode::{BlockMeta, NameNode};
use crate::spill::{SpillConfig, SpillPlane, SpillStats, SpilledFile};

/// Identifier of a datanode (the cluster simulator uses the same ids for
/// compute nodes, so "node-local read" is meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// DFS-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Replication factor for every block (HDFS default: 3).
    pub replication: usize,
    /// Maximum block payload size in bytes (tiles are written one block
    /// each if they fit; larger payloads are split).
    pub block_size: u64,
    /// Seed for the placement policy.
    pub seed: u64,
    /// Number of racks; node `n` lives in rack `n % racks`. With more than
    /// one rack, the second replica of every block is placed off the first
    /// replica's rack (HDFS's fault-domain policy), so losing a whole rack
    /// loses no data when `replication ≥ 2`.
    pub racks: u32,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            replication: 3,
            block_size: 128 << 20,
            seed: 0x0df5,
            racks: 1,
        }
    }
}

impl DfsConfig {
    /// Rack of a node under this configuration.
    pub(crate) fn rack_of(&self, node: NodeId) -> u32 {
        node.0 % self.racks.max(1)
    }
}

/// What an I/O operation did, for the simulator to charge time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IoReceipt {
    /// Payload bytes moved (for writes: logical bytes, i.e. one replica).
    pub bytes: u64,
    /// Bytes served from the reader's own node.
    pub local_bytes: u64,
    /// Bytes that crossed the network. For writes this includes the
    /// replication pipeline (replication − 1 remote copies, plus the first
    /// copy if the writer is not a datanode-local writer).
    pub remote_bytes: u64,
}

impl IoReceipt {
    /// Component-wise sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: IoReceipt) -> IoReceipt {
        IoReceipt {
            bytes: self.bytes + other.bytes,
            local_bytes: self.local_bytes + other.local_bytes,
            remote_bytes: self.remote_bytes + other.remote_bytes,
        }
    }
}

struct DfsState {
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    rng: StdRng,
    /// Scratch list of candidate replica targets, reused by every
    /// placement so a write allocates no node list.
    candidates: Vec<NodeId>,
    /// Out-of-core plane, when a memory budget is installed. Lives under
    /// the same lock as the datanodes so residency swaps are atomic with
    /// respect to reads. Boxed: a store without a budget carries a null
    /// pointer, not an empty plane's worth of maps and counters.
    spill: Option<Box<SpillPlane>>,
}

/// The simulated distributed file system. Cheap to clone (`Arc` inside);
/// all methods take `&self`.
#[derive(Clone)]
pub struct Dfs {
    state: Arc<Mutex<DfsState>>,
    config: DfsConfig,
}

impl Dfs {
    /// Creates a DFS spanning `nodes` datanodes.
    pub fn new(nodes: u32, config: DfsConfig) -> Self {
        let state = DfsState {
            namenode: NameNode::new(nodes),
            datanodes: (0..nodes).map(|_| DataNode::new()).collect(),
            rng: StdRng::seed_from_u64(config.seed),
            candidates: Vec::new(),
            spill: None,
        };
        Dfs {
            state: Arc::new(Mutex::new(state)),
            config,
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Number of datanodes ever registered (dead ones included).
    pub fn node_count(&self) -> usize {
        self.state.lock().datanodes.len()
    }

    /// True when the datanode is registered and alive. Compute schedulers
    /// share node ids with the DFS, so this doubles as cluster liveness.
    pub fn is_node_live(&self, node: NodeId) -> bool {
        self.state.lock().namenode.is_live(node)
    }

    /// Ids of all live datanodes, sorted.
    #[cfg(test)]
    pub(crate) fn live_nodes(&self) -> Vec<NodeId> {
        self.state.lock().namenode.live_nodes().to_vec()
    }

    /// Chooses replica target nodes: writer-local first (if the writer is a
    /// live datanode), the second replica off the first replica's rack when
    /// the topology has racks, then distinct random live nodes — HDFS'
    /// default placement policy.
    fn place_replicas(
        state: &mut DfsState,
        config: &DfsConfig,
        writer: Option<NodeId>,
        want: usize,
    ) -> Result<Vec<NodeId>> {
        let DfsState {
            namenode,
            rng,
            candidates: live,
            ..
        } = state;
        live.clear();
        live.extend_from_slice(namenode.live_nodes());
        let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
        if let Some(w) = writer {
            if namenode.is_live(w) {
                chosen.push(w);
                live.retain(|&n| n != w);
            }
        }
        live.shuffle(rng);
        while chosen.len() < want && !live.is_empty() {
            let pick = if chosen.len() == 1 && config.racks > 1 {
                // Fault-domain rule: second replica off the first's rack.
                let first_rack = config.rack_of(chosen[0]);
                live.iter()
                    .position(|&n| config.rack_of(n) != first_rack)
                    .unwrap_or(0)
            } else {
                0
            };
            chosen.push(live.remove(pick));
        }
        // No live node (an empty shuffle draws nothing), or none wanted.
        if chosen.is_empty() {
            return Err(DfsError::InsufficientNodes {
                wanted: want,
                alive: 0,
            });
        }
        // Fewer live nodes than the replication factor degrades gracefully,
        // like HDFS: the block is simply under-replicated.
        Ok(chosen)
    }

    /// Writes a tile file: namespace entry, block splitting, placement and
    /// replica stores. Blocks store the shared `Arc<Tile>`; `wire_len` must
    /// be the exact encoded length (see
    /// `cumulon_matrix::serialize::encoded_len`) — the file splits into
    /// blocks of that logical size, and receipts and storage counters
    /// charge it, so they match a write of the encoding bit-for-bit
    /// without paying for it. `writer` is the node performing the write
    /// (`None` = external client). A file already at `path` is deleted
    /// first, as [`Dfs::delete_file`] would (a re-executed task overwrites
    /// its earlier output; a checkpoint re-replicates in place).
    pub fn write_tile_file(
        &self,
        path: &str,
        tile: Arc<Tile>,
        wire_len: u64,
        writer: Option<NodeId>,
        replication: usize,
    ) -> Result<IoReceipt> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.namenode.exists(path) {
            Self::delete_locked(st, path)?;
        }
        let shared = st.namenode.create_file(path)?;
        let mut receipt = IoReceipt::default();
        let mut offset = 0u64;
        loop {
            let len = (wire_len - offset).min(self.config.block_size);
            let replicas = match Self::place_replicas(st, &self.config, writer, replication) {
                Ok(r) => r,
                Err(e) => {
                    // Roll back the namespace entry so a failed write does
                    // not leave a ghost file behind.
                    let _ = st.namenode.delete_file(&shared);
                    return Err(e);
                }
            };
            let id = st.namenode.allocate_block();
            for &node in &replicas {
                let payload = BlockPayload::Tile {
                    tile: Arc::clone(&tile),
                    len,
                };
                st.datanodes[node.0 as usize].put(id, payload);
                if writer == Some(node) {
                    receipt.local_bytes += len;
                } else {
                    receipt.remote_bytes += len;
                }
            }
            receipt.bytes += len;
            st.namenode
                .append_block(&shared, BlockMeta { id, len, replicas })?;
            offset += len;
            if offset >= wire_len {
                break;
            }
        }
        // Out-of-core plane: the new file becomes the hottest resident
        // entry; demote colder files until the budget holds. Phantom
        // tiles pin no data and are never tracked.
        if !tile.is_phantom() && st.spill.is_some() {
            drop(tile); // release this fn's pin before enforcement
            if let Some(plane) = st.spill.as_mut() {
                // An overwrite of a demoted or backed path supersedes
                // the copy on disk; drop its blob reference so
                // compaction can reclaim the stale bytes.
                if let Some(stale) = plane.note_resident(path, wire_len) {
                    plane.blob_mut().release(stale.key)?;
                }
            }
            Self::enforce_budget(st)?;
        }
        Ok(receipt)
    }

    /// Per-block replica selection for [`Dfs::read_tile_file`]: replicas
    /// are tried in locality order (reader-local, same-rack, then the
    /// rest, each tier in replica-list order) and the first datanode
    /// actually holding the payload serves. `DataNode::get` is called on
    /// the serving node, so its read counter advances. Returns `None` when
    /// no replica can serve.
    fn serve_block(
        datanodes: &mut [DataNode],
        config: &DfsConfig,
        reader: Option<NodeId>,
        block: &BlockMeta,
    ) -> Option<(NodeId, BlockPayload)> {
        let reader_rack = reader.map(|r| config.rack_of(r));
        let tier = |n: NodeId| {
            if Some(n) == reader {
                0
            } else if Some(config.rack_of(n)) == reader_rack {
                1
            } else {
                2
            }
        };
        (0..3)
            .flat_map(|t| {
                block
                    .replicas
                    .iter()
                    .copied()
                    .filter(move |&n| tier(n) == t)
            })
            .find_map(|n| datanodes[n.0 as usize].get(block.id).map(|data| (n, data)))
    }

    /// Reads a whole file's tile, shared — never copied or decoded unless
    /// the spill plane demoted it, in which case it is re-admitted first.
    /// Per block, replicas are tried in locality order — reader-local
    /// first, then same-rack, then the rest — and the read fails over to
    /// the next replica when one does not actually hold the payload.
    /// [`DfsError::BlockLost`] surfaces only when *no* replica can serve
    /// the block. The receipt says how many bytes were local vs remote.
    pub fn read_tile_file(
        &self,
        path: &str,
        reader: Option<NodeId>,
    ) -> Result<(Arc<Tile>, IoReceipt)> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let blocks = &st.namenode.stat(path)?.blocks;
        if let Some(plane) = st.spill.as_mut() {
            plane.touch(path);
        }
        let mut handle: Option<Arc<Tile>> = None;
        let mut receipt = IoReceipt::default();
        let mut lost = None;
        for (idx, block) in blocks.iter().enumerate() {
            let Some((source, data)) =
                Self::serve_block(&mut st.datanodes, &self.config, reader, block)
            else {
                lost = Some(idx);
                break;
            };
            receipt.bytes += block.len;
            if reader == Some(source) {
                receipt.local_bytes += block.len;
            } else {
                receipt.remote_bytes += block.len;
            }
            match data {
                // Every block shares the file's Arc, so the first one
                // is the whole payload.
                BlockPayload::Tile { tile, .. } => handle = Some(tile),
                // Demoted file: re-admit it from the blob store. The
                // serving datanode already counted this read at the
                // identical wire length, so receipts and counters cannot
                // tell a disk-resident tile from a RAM-resident one.
                BlockPayload::Spilled { key, .. } => {
                    let plane = st
                        .spill
                        .as_deref_mut()
                        .expect("spilled payload implies a plane");
                    handle = Some(Self::readmit_path(
                        &st.namenode,
                        &mut st.datanodes,
                        plane,
                        path,
                        key,
                    )?);
                }
            }
        }
        // Re-admission may have pushed the plane over budget — also when
        // a later block is lost: demote colder files now (the file just
        // read is the hottest entry), then report the loss.
        Self::enforce_budget(st)?;
        if let Some(block) = lost {
            return Err(DfsError::BlockLost {
                path: path.to_string(),
                block,
            });
        }
        // A write whose first placement fails removes the namespace entry
        // it created, so every file has a block.
        Ok((handle.expect("every file has a block"), receipt))
    }

    /// True if the path exists.
    pub(crate) fn exists(&self, path: &str) -> bool {
        self.state.lock().namenode.exists(path)
    }

    /// Deletes a file and all replicas. A demoted or backed file also drops
    /// its blob-store reference, so segment compaction can reclaim the bytes.
    pub fn delete_file(&self, path: &str) -> Result<()> {
        Self::delete_locked(&mut self.state.lock(), path)
    }

    fn delete_locked(st: &mut DfsState, path: &str) -> Result<()> {
        let blocks = st.namenode.delete_file(path)?;
        for b in blocks {
            for node in b.replicas {
                st.datanodes[node.0 as usize].evict(b.id);
            }
        }
        if let Some(plane) = st.spill.as_mut() {
            if let Some(entry) = plane.forget(path) {
                plane.blob_mut().release(entry.key)?;
            }
        }
        Ok(())
    }

    /// Lists paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.state.lock().namenode.list(prefix)
    }

    /// Visits the nodes a read of `path` is fully local on — the file's
    /// *home*: those the namenode lists as holding a replica of *every*
    /// block of the file — in the first block's replica order. Visits
    /// nothing, and allocates nothing, when there is no file at `path` or
    /// some block has lost every replica. `visit` runs under the DFS lock
    /// and must not call back into the DFS. The task scheduler's locality
    /// hint.
    pub(crate) fn home_of(&self, path: &str, visit: impl FnMut(NodeId)) {
        let st = self.state.lock();
        // Every file has at least one block: a write whose first placement
        // fails removes the namespace entry it created.
        let Some((first, rest)) = st.namenode.file(path).and_then(|f| f.blocks.split_first())
        else {
            return;
        };
        first
            .replicas
            .iter()
            .copied()
            .filter(|n| rest.iter().all(|b| b.replicas.contains(n)))
            .for_each(visit);
    }

    /// Kills a datanode. Surviving under-replicated blocks are re-replicated
    /// onto other live nodes; the returned receipt charges that traffic.
    /// Blocks whose only replica was on the dead node are lost (reads will
    /// fail with [`DfsError::BlockLost`]).
    pub fn kill_node(&self, node: NodeId) -> Result<IoReceipt> {
        self.kill_nodes(&[node])
    }

    /// Kills several datanodes **simultaneously** (a correlated failure —
    /// rack power loss, switch failure). Unlike sequential [`Dfs::kill_node`]
    /// calls, no re-replication happens between the individual deaths, so a
    /// block whose every replica sat on the victims is lost even when other
    /// victims would have been valid re-replication sources.
    pub fn kill_nodes(&self, nodes: &[NodeId]) -> Result<IoReceipt> {
        let mut st = self.state.lock();
        let mut under_replicated = Vec::new();
        for &node in nodes {
            // A failure plan may name nodes this DFS never had (e.g. a
            // spot-market model sized for a bigger fleet); skip them
            // instead of indexing out of bounds.
            if (node.0 as usize) >= st.datanodes.len() {
                continue;
            }
            let under = st.namenode.decommission_node(node);
            // The node's disks are gone with it.
            for id in st.datanodes[node.0 as usize].block_ids() {
                st.datanodes[node.0 as usize].evict(id);
            }
            under_replicated.extend(under);
        }
        under_replicated.sort();
        under_replicated.dedup();
        let mut receipt = IoReceipt::default();
        for id in under_replicated {
            // Find a surviving replica and a target that lacks one.
            let holder = st
                .datanodes
                .iter()
                .enumerate()
                .find(|(n, dn)| st.namenode.is_live(NodeId(*n as u32)) && dn.contains(id))
                .map(|(n, _)| NodeId(n as u32));
            let Some(holder) = holder else { continue };
            let target = st
                .namenode
                .live_nodes()
                .iter()
                .copied()
                .find(|&n| n != holder && !st.datanodes[n.0 as usize].contains(id));
            let Some(target) = target else { continue };
            // Re-replication clones the payload — an Arc clone (or a
            // spilled reference), still charged at wire length.
            let data = st.datanodes[holder.0 as usize]
                .get(id)
                .expect("holder was just checked to contain the block");
            let len = data.len();
            st.datanodes[target.0 as usize].put(id, data);
            st.namenode.add_replica(id, target)?;
            receipt.bytes += len;
            receipt.remote_bytes += len;
        }
        Ok(receipt)
    }

    /// Gracefully drains doomed nodes ahead of a revocation: every block
    /// whose *entire* replica set sits on `victims` is copied to one live
    /// non-victim node, spending at most `byte_budget` bytes of traffic
    /// (what the warning lead window's bandwidth allows). Blocks are
    /// visited in path order (deterministic); blocks that don't fit
    /// the remaining budget are skipped and stay at risk — if the victims
    /// then die, those blocks are lost and lineage recovery takes over.
    /// The victims themselves stay live: in-flight work drains separately.
    pub fn drain_nodes(&self, victims: &[NodeId], byte_budget: u64) -> Result<IoReceipt> {
        let mut st = self.state.lock();
        let is_victim = |n: NodeId| victims.contains(&n);
        // Plan first (immutable scan of the namespace), then move payloads.
        let mut moves: Vec<(BlockId, u64)> = Vec::new();
        let mut spent = 0u64;
        for path in st.namenode.list("") {
            let meta = st.namenode.stat(&path)?;
            for block in &meta.blocks {
                if block.replicas.is_empty() || !block.replicas.iter().all(|&r| is_victim(r)) {
                    continue;
                }
                if spent.saturating_add(block.len) > byte_budget {
                    continue; // doesn't fit; later smaller blocks still may
                }
                spent += block.len;
                moves.push((block.id, block.len));
            }
        }
        let mut receipt = IoReceipt::default();
        for (id, len) in moves {
            let holder = st
                .datanodes
                .iter()
                .enumerate()
                .find(|(n, dn)| is_victim(NodeId(*n as u32)) && dn.contains(id))
                .map(|(n, _)| NodeId(n as u32));
            let Some(holder) = holder else { continue };
            let target = st
                .namenode
                .live_nodes()
                .iter()
                .copied()
                .find(|&n| !is_victim(n) && !st.datanodes[n.0 as usize].contains(id));
            let Some(target) = target else { continue };
            let data = st.datanodes[holder.0 as usize]
                .get(id)
                .expect("holder was just checked to contain the block");
            st.datanodes[target.0 as usize].put(id, data);
            st.namenode.add_replica(id, target)?;
            receipt.bytes += len;
            receipt.remote_bytes += len;
        }
        Ok(receipt)
    }

    /// Kills every live node in a rack simultaneously (datacenter
    /// fault-domain failure). Returns the re-replication traffic.
    #[cfg(test)]
    pub(crate) fn kill_rack(&self, rack: u32) -> Result<IoReceipt> {
        let victims: Vec<NodeId> = {
            let st = self.state.lock();
            st.namenode
                .live_nodes()
                .iter()
                .copied()
                .filter(|&n| self.config.rack_of(n) == rack)
                .collect()
        };
        self.kill_nodes(&victims)
    }

    /// Registers a fresh datanode (cluster grow).
    pub fn add_node(&self) -> NodeId {
        let mut st = self.state.lock();
        let id = NodeId(st.datanodes.len() as u32);
        st.datanodes.push(DataNode::new());
        st.namenode.register_node(id);
        id
    }

    /// Aggregate storage statistics `(logical bytes, physical bytes)`.
    pub fn storage_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        let logical = st.namenode.total_bytes();
        let physical = st.datanodes.iter().map(DataNode::bytes_stored).sum();
        (logical, physical)
    }

    /// Per-node stored bytes, for balance inspection.
    #[cfg(test)]
    pub(crate) fn per_node_bytes(&self) -> Vec<u64> {
        self.state
            .lock()
            .datanodes
            .iter()
            .map(DataNode::bytes_stored)
            .collect()
    }

    /// Snapshot of both sides of the byte-conservation ledger: the
    /// namenode's metadata view next to the datanodes' actual contents.
    /// Taken under one lock, so the two sides are mutually consistent.
    pub fn storage_accounting(&self) -> StorageAccounting {
        let st = self.state.lock();
        let per_node_expected = st.namenode.per_node_replica_bytes();
        let per_node = st
            .datanodes
            .iter()
            .enumerate()
            .map(|(i, dn)| {
                let expected = per_node_expected
                    .get(&NodeId(i as u32))
                    .copied()
                    .unwrap_or(0);
                (expected, dn.bytes_stored())
            })
            .collect();
        StorageAccounting {
            logical_bytes: st.namenode.total_bytes(),
            namenode_replica_bytes: st.namenode.replicated_bytes(),
            datanode_bytes: st.datanodes.iter().map(DataNode::bytes_stored).sum(),
            namenode_replica_count: st.namenode.replica_count(),
            datanode_block_count: st.datanodes.iter().map(DataNode::block_count).sum(),
            per_node,
        }
    }

    // ------------------------------------------------------------------
    // Out-of-core spill plane (see crate::spill).
    // ------------------------------------------------------------------

    /// Installs (or removes) the memory-budgeted spill plane. A budget of
    /// zero removes the plane — after re-admitting every demoted file, so
    /// no data is stranded in the segment files the plane deletes on drop
    /// (every file is then resident, and the backings the re-admissions
    /// left go with the old plane's blob store). Installing with a nonzero
    /// budget adopts the files that hold a resident, non-phantom tile (path
    /// order) and enforces the budget immediately. Replacing an existing
    /// plane first re-admits through the old one for the same reason.
    pub(crate) fn set_spill_config(&self, config: &SpillConfig) -> Result<()> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Some(plane) = st.spill.as_deref_mut() {
            for path in plane.spilled_paths() {
                let entry = plane.spilled(&path).expect("listed => spilled");
                Self::readmit_path(&st.namenode, &mut st.datanodes, plane, &path, entry.key)?;
            }
            st.spill = None;
        }
        if config.budget_bytes == 0 {
            return Ok(());
        }
        let mut plane = SpillPlane::new(config)?;
        for path in st.namenode.list("") {
            let meta = st.namenode.stat(&path)?;
            let wire_len: u64 = meta.blocks.iter().map(|b| b.len).sum();
            let first = meta.blocks.first();
            let is_handle = first.is_some_and(|b| {
                b.replicas.iter().any(|&n| {
                    matches!(
                        st.datanodes[n.0 as usize].peek(b.id),
                        Some(BlockPayload::Tile { tile, .. }) if !tile.is_phantom()
                    )
                })
            });
            if is_handle {
                // The plane is freshly built: nothing is spilled yet, so
                // adoption cannot displace a demoted entry.
                let displaced = plane.note_resident(&path, wire_len);
                debug_assert!(displaced.is_none(), "fresh plane has no spills");
            }
        }
        st.spill = Some(Box::new(plane));
        Self::enforce_budget(st)
    }

    /// Spill-plane counters, when a plane is installed.
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.state.lock().spill.as_deref().map(SpillPlane::stats)
    }

    /// The installed spill plane's resident-byte budget, if any.
    pub(crate) fn memory_budget(&self) -> Option<u64> {
        self.state
            .lock()
            .spill
            .as_deref()
            .map(SpillPlane::budget_bytes)
    }

    /// True when `path` is currently demoted to the spill plane's blob
    /// store — reading it now would pay a synchronous decode-and-readback.
    /// Always `false` without a plane (everything is RAM-resident). The
    /// scheduler's residency oracle.
    pub(crate) fn is_spilled(&self, path: &str) -> bool {
        self.state
            .lock()
            .spill
            .as_ref()
            .is_some_and(|p| p.is_spilled(path))
    }

    /// Re-admits `path` ahead of demand if it is currently demoted,
    /// marking it prefetched so the next canonical read credits
    /// `readback_bytes_avoided`. Returns the wire bytes readmitted (`0`
    /// when the path is not spilled — including when no plane is
    /// installed). Transparent by construction: re-admission produces no
    /// receipt, draws no placement RNG, and advances no simulated time —
    /// only where the payload physically lives changes.
    pub(crate) fn prefetch_path(&self, path: &str) -> Result<u64> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some(plane) = st.spill.as_deref_mut() else {
            return Ok(0);
        };
        let Some(entry) = plane.spilled(path) else {
            return Ok(0);
        };
        Self::readmit_path(&st.namenode, &mut st.datanodes, plane, path, entry.key)?;
        plane.record_prefetched(path, entry.wire_len);
        // Early admission must not breach the budget: demote colder files
        // now (the prefetched file is the hottest entry, so it survives).
        Self::enforce_budget(st)?;
        Ok(entry.wire_len)
    }

    /// Conservation check for the spill plane (`true` without one): every
    /// demoted file's recorded wire length must equal the sum of its block
    /// lengths in the namenode, and every replica of every one of its
    /// blocks must hold a `BlockPayload::Spilled` reference with the
    /// file's blob key and the block's exact length; every backed file
    /// must likewise match its namenode length; and the blob store must
    /// hold exactly the entries those files point at, each with one
    /// reference per file in `spilled ∪ backed` holding its key — no
    /// leaked reference, no dangling one. Together with
    /// [`Dfs::storage_accounting`] this pins that demotion never creates
    /// or destroys accounted bytes.
    pub fn spill_conserved(&self) -> bool {
        let st = self.state.lock();
        let Some(plane) = st.spill.as_ref() else {
            return true;
        };
        let mut refs: HashMap<BlobKey, u32> = HashMap::new();
        for path in plane.spilled_paths() {
            let (Some(entry), Ok(meta)) = (plane.spilled(&path), st.namenode.stat(&path)) else {
                return false;
            };
            if meta.len() != entry.wire_len {
                return false;
            }
            for b in &meta.blocks {
                for &n in &b.replicas {
                    match st.datanodes[n.0 as usize].peek(b.id) {
                        Some(BlockPayload::Spilled { key, len })
                            if *key == entry.key && *len == b.len => {}
                        _ => return false,
                    }
                }
            }
            *refs.entry(entry.key).or_default() += 1;
        }
        for path in plane.backed_paths() {
            let (Some(entry), Ok(meta)) = (plane.backing(&path), st.namenode.stat(&path)) else {
                return false;
            };
            if meta.len() != entry.wire_len {
                return false;
            }
            *refs.entry(entry.key).or_default() += 1;
        }
        let blob = plane.blob();
        blob.stats().live_entries == refs.len() as u64
            && refs.iter().all(|(key, n)| blob.refs(*key) == Some(*n))
    }

    /// Demotes LRU-cold resident files until the plane is under budget.
    /// No-op without a plane or under budget.
    fn enforce_budget(st: &mut DfsState) -> Result<()> {
        loop {
            let Some((path, backing)) = st.spill.as_deref_mut().and_then(SpillPlane::next_eviction)
            else {
                return Ok(());
            };
            Self::demote_path(st, &path, backing)?;
        }
    }

    /// Demotes one handle file and swaps every replica of every block to a
    /// [`BlockPayload::Spilled`] reference of identical wire length.
    /// Counter-neutral by construction. A file with a `backing` — still
    /// on disk from its last spill and not written since — pays nothing
    /// more than the swap. Any other is encoded through the ordinary wire
    /// codec, optionally compressed, and appended to the blob store under
    /// a key the plane mints for it ([`SpillPlane::mint_key`]): the entry
    /// is this file's alone, and the bytes are never hashed.
    /// Files that no longer hold a resident tile (e.g. every replica lost
    /// with its node) are skipped, and give their backing up.
    fn demote_path(st: &mut DfsState, path: &str, backing: Option<SpilledFile>) -> Result<()> {
        let handle = st.namenode.stat(path).ok().and_then(|meta| {
            let replicas = meta
                .blocks
                .iter()
                .flat_map(|b| b.replicas.iter().map(move |&n| (n, b.id)));
            for (n, id) in replicas {
                if let Some(BlockPayload::Tile { tile, .. }) = st.datanodes[n.0 as usize].peek(id) {
                    return Some((meta.blocks.clone(), Arc::clone(tile)));
                }
            }
            None
        });
        let plane = st.spill.as_mut().expect("demotion implies a plane");
        let Some((blocks, tile)) = handle else {
            // Deleted since it went cold, or not a handle file (anymore):
            // nothing to demote, and nothing for a backing to back.
            if let Some(stale) = backing {
                plane.blob_mut().release(stale.key)?;
            }
            return Ok(());
        };
        let wire_len: u64 = blocks.iter().map(|b| b.len).sum();
        let key = match backing {
            Some(backing) => {
                debug_assert_eq!(backing.wire_len, wire_len, "backing is this file's");
                plane.record_clean_eviction(path, backing);
                backing.key
            }
            None => {
                let wire = encode_tile(&tile);
                debug_assert_eq!(wire.len() as u64, wire_len, "handle len is the encoding");
                let (codec, payload) = if plane.compress() {
                    maybe_compress(&wire)
                } else {
                    (Codec::Raw, Cow::Borrowed(&wire[..]))
                };
                let key = plane.mint_key();
                plane
                    .blob_mut()
                    .put(key, codec, &payload, wire.len() as u32)?;
                if let Some(stale) = plane.record_spilled(path, key, wire_len) {
                    // A superseded earlier spill of the same path (should
                    // not happen through next_eviction, but churn-safe):
                    // release its blob reference rather than leak it.
                    plane.blob_mut().release(stale.key)?;
                }
                key
            }
        };
        for b in &blocks {
            for &n in &b.replicas {
                st.datanodes[n.0 as usize]
                    .swap_payload(b.id, BlockPayload::Spilled { key, len: b.len });
            }
        }
        Ok(())
    }

    /// Re-admits one demoted file: reads the blob entry back, decompresses
    /// and decodes it into a fresh `Arc<Tile>`, and swaps every replica
    /// back to a resident handle. The blob reference is kept: it backs
    /// the resident file until the file is written, deleted or demoted
    /// again (see [`crate::spill`]). The returned Arc is *new* —
    /// bitwise-equal to the one that was demoted, but not
    /// pointer-identical (the documented residency exception).
    fn readmit_path(
        namenode: &NameNode,
        datanodes: &mut [DataNode],
        plane: &mut SpillPlane,
        path: &str,
        key: BlobKey,
    ) -> Result<Arc<Tile>> {
        let (codec, payload, raw_len) = plane.blob_mut().get(key)?;
        let wire = match decompress(codec, &payload)? {
            Cow::Owned(wire) => wire,
            // Stored raw: the buffer just read is the wire form.
            Cow::Borrowed(_) => payload,
        };
        if wire.len() as u32 != raw_len {
            return Err(DfsError::Spill(format!(
                "blob {key:?} decompressed to {} bytes, recorded {raw_len}",
                wire.len()
            )));
        }
        let tile = Arc::new(decode_tile(Bytes::from(wire))?);
        let blocks = &namenode.stat(path)?.blocks;
        let wire_len: u64 = blocks.iter().map(|b| b.len).sum();
        for b in blocks {
            for &n in &b.replicas {
                datanodes[n.0 as usize].swap_payload(
                    b.id,
                    BlockPayload::Tile {
                        tile: Arc::clone(&tile),
                        len: b.len,
                    },
                );
            }
        }
        plane
            .record_readmitted(path, wire_len)
            .expect("readmit of a recorded spill");
        Ok(tile)
    }
}

/// Both sides of the byte-conservation ledger, from one consistent
/// snapshot: what the namenode's block metadata says the datanodes hold,
/// and what their own counters report. [`StorageAccounting::is_conserved`]
/// is the invariant `cumulon check` enforces after every lattice run, and
/// the DFS property tests across writes, kills, spills and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageAccounting {
    /// Σ file lengths (logical, not × replication).
    pub logical_bytes: u64,
    /// Namenode expectation: Σ block `len × replica count`.
    pub namenode_replica_bytes: u64,
    /// Datanode reality: Σ `bytes_stored` over all datanodes.
    pub datanode_bytes: u64,
    /// Namenode expectation: total block replicas across all files.
    pub namenode_replica_count: usize,
    /// Datanode reality: total block replicas actually held.
    pub datanode_block_count: usize,
    /// Per node (indexed by node id): `(namenode expectation, stored)`.
    pub per_node: Vec<(u64, u64)>,
}

impl StorageAccounting {
    /// True when metadata and storage agree exactly — in aggregate, in
    /// replica counts, and node by node.
    pub fn is_conserved(&self) -> bool {
        self.namenode_replica_bytes == self.datanode_bytes
            && self.namenode_replica_count == self.datanode_block_count
            && self.per_node.iter().all(|&(want, got)| want == got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_matrix::DenseTile;

    fn dfs(nodes: u32, replication: usize) -> Dfs {
        Dfs::new(
            nodes,
            DfsConfig {
                replication,
                block_size: 64,
                seed: 7,
                racks: 1,
            },
        )
    }

    /// A 1×1 tile holding `v`, so a read can tell which file it got.
    pub(super) fn tile(v: f64) -> Arc<Tile> {
        Arc::new(Tile::dense(DenseTile::from_vec(1, 1, vec![v])))
    }

    /// Writes `tile` as a file of `len` wire bytes at the configured
    /// replication: the explicit length is what blocks split on and what
    /// every counter charges.
    pub(super) fn write(
        d: &Dfs,
        path: &str,
        tile: &Arc<Tile>,
        len: u64,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        d.write_tile_file(path, Arc::clone(tile), len, writer, d.config.replication)
    }

    #[test]
    fn write_read_roundtrip() {
        let d = dfs(4, 3);
        let t = tile(7.0);
        let w = write(&d, "/f", &t, 100, Some(NodeId(1))).unwrap();
        assert_eq!(w.bytes, 100);
        // Writer-local replica + 2 remote replicas per block.
        assert_eq!(w.local_bytes, 100);
        assert_eq!(w.remote_bytes, 200);
        let (got, r) = d.read_tile_file("/f", Some(NodeId(1))).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(r.local_bytes, 100);
        assert_eq!(r.remote_bytes, 0);
    }

    #[test]
    fn remote_read_counts_remote() {
        let d = dfs(5, 1);
        write(&d, "/f", &tile(1.0), 10, Some(NodeId(0))).unwrap();
        let (_, r) = d.read_tile_file("/f", Some(NodeId(4))).unwrap();
        assert_eq!(r.remote_bytes, 10);
        assert_eq!(r.local_bytes, 0);
    }

    #[test]
    fn blocks_split_at_block_size() {
        let d = dfs(3, 2);
        write(&d, "/big", &tile(0.0), 200, None).unwrap();
        let st = d.state.lock();
        let meta = st.namenode.stat("/big").unwrap();
        assert_eq!(meta.blocks.len(), 4); // 200 bytes / 64-byte blocks
        assert_eq!(meta.len(), 200);
    }

    #[test]
    fn replication_physical_bytes() {
        let d = dfs(4, 3);
        write(&d, "/f", &tile(2.0), 50, None).unwrap();
        let (logical, physical) = d.storage_stats();
        assert_eq!(logical, 50);
        assert_eq!(physical, 150);
    }

    #[test]
    fn drain_moves_sole_replica_blocks_to_survivors() {
        let d = dfs(4, 1);
        let (a, b) = (tile(1.0), tile(2.0));
        write(&d, "/a", &a, 64, Some(NodeId(0))).unwrap();
        write(&d, "/b", &b, 64, Some(NodeId(0))).unwrap();
        let receipt = d.drain_nodes(&[NodeId(0)], u64::MAX).unwrap();
        assert_eq!(receipt.bytes, 128);
        assert!(d.storage_accounting().is_conserved());
        // The victim is still live after draining; the kill then loses
        // nothing because every block now has a survivor replica.
        d.kill_nodes(&[NodeId(0)]).unwrap();
        assert!(Arc::ptr_eq(&d.read_tile_file("/a", None).unwrap().0, &a));
        assert!(Arc::ptr_eq(&d.read_tile_file("/b", None).unwrap().0, &b));
    }

    #[test]
    fn drain_respects_byte_budget_in_namespace_order() {
        let d = dfs(4, 1);
        for (path, v) in [("/a", 1.0), ("/b", 2.0), ("/c", 3.0)] {
            write(&d, path, &tile(v), 64, Some(NodeId(0))).unwrap();
        }
        // Budget covers exactly two blocks; namespace order says /a and /b
        // are saved, /c stays at risk.
        let receipt = d.drain_nodes(&[NodeId(0)], 128).unwrap();
        assert_eq!(receipt.bytes, 128);
        d.kill_nodes(&[NodeId(0)]).unwrap();
        assert!(d.read_tile_file("/a", None).is_ok());
        assert!(d.read_tile_file("/b", None).is_ok());
        assert!(matches!(
            d.read_tile_file("/c", None),
            Err(DfsError::BlockLost { .. })
        ));
    }

    /// The namespace is a hash map; its order must reach no result. Paths
    /// created in a shuffled order list sorted, drain in path order under
    /// a budget, and are reported lost in path order; the live-node list
    /// stays sorted through growth and failures.
    #[test]
    fn namespace_order_is_path_order_wherever_it_shows() {
        let d = dfs(4, 1);
        let created: Vec<String> = (0..12).map(|i| format!("/m/{:02}", i * 5 % 12)).collect();
        for path in &created {
            write(&d, path, &tile(1.0), 64, Some(NodeId(0))).unwrap();
        }
        let mut sorted = created.clone();
        sorted.sort();
        assert_ne!(created, sorted, "the test must create out of order");
        assert_eq!(d.list("/m/"), sorted);
        assert_eq!(d.list(""), sorted);
        // A budget of five blocks saves the first five paths.
        let receipt = d.drain_nodes(&[NodeId(0)], 5 * 64).unwrap();
        assert_eq!(receipt.bytes, 5 * 64);
        let mut st = d.state.lock();
        let replicas =
            |st: &DfsState, path: &str| st.namenode.stat(path).unwrap().blocks[0].replicas.len();
        for (i, path) in sorted.iter().enumerate() {
            assert_eq!(replicas(&st, path), if i < 5 { 2 } else { 1 }, "{path}");
        }
        st.namenode.decommission_node(NodeId(0));
        let lost = st.namenode.lost_blocks();
        let lost: Vec<(&str, usize)> = lost.iter().map(|(p, i)| (&**p, *i)).collect();
        let want: Vec<(&str, usize)> = sorted[5..].iter().map(|p| (p.as_str(), 0)).collect();
        assert_eq!(lost, want);
        drop(st);

        let d = Dfs::new(
            6,
            DfsConfig {
                racks: 2,
                ..DfsConfig::default()
            },
        );
        assert_eq!(d.add_node(), NodeId(6));
        d.kill_nodes(&[NodeId(3), NodeId(1)]).unwrap();
        assert_eq!(d.live_nodes(), [0, 2, 4, 5, 6].map(NodeId));
        assert_eq!(d.add_node(), NodeId(7));
        d.kill_rack(0).unwrap();
        assert_eq!(d.live_nodes(), [5, 7].map(NodeId));
    }

    #[test]
    fn drain_skips_blocks_with_surviving_replicas() {
        let d = dfs(4, 2);
        write(&d, "/f", &tile(1.0), 64, Some(NodeId(0))).unwrap();
        // Replication 2: the second replica lives off-victim already, so
        // there is nothing to drain.
        let receipt = d.drain_nodes(&[NodeId(0)], u64::MAX).unwrap();
        assert_eq!(receipt.bytes, 0);
    }

    #[test]
    fn bulk_kill_of_every_replica_surfaces_block_lost() {
        let d = dfs(4, 2);
        write(&d, "/f", &tile(1.0), 64, None).unwrap();
        let victims: Vec<NodeId> = {
            let st = d.state.lock();
            st.namenode.stat("/f").unwrap().blocks[0].replicas.clone()
        };
        assert_eq!(victims.len(), 2);
        // Correlated kill: both replicas go at once, so re-replication has
        // no source. The read must fail structurally, not panic.
        d.kill_nodes(&victims).unwrap();
        assert!(matches!(
            d.read_tile_file("/f", None),
            Err(DfsError::BlockLost { .. })
        ));
        assert!(d.storage_accounting().is_conserved());
    }

    #[test]
    fn kill_and_drain_ignore_out_of_range_nodes() {
        let d = dfs(2, 1);
        write(&d, "/f", &tile(1.0), 8, Some(NodeId(0))).unwrap();
        // Node 99 does not exist; neither call may panic.
        d.kill_nodes(&[NodeId(99)]).unwrap();
        let receipt = d.drain_nodes(&[NodeId(99)], u64::MAX).unwrap();
        assert_eq!(receipt.bytes, 0);
        assert!(d.read_tile_file("/f", None).is_ok());
    }

    #[test]
    fn graceful_under_replication() {
        let d = dfs(2, 3); // want 3 replicas, only 2 nodes
        write(&d, "/f", &tile(1.0), 10, None).unwrap();
        let (_, physical) = d.storage_stats();
        assert_eq!(physical, 20);
    }

    /// A write to a taken path replaces the file, as a re-executed task's
    /// output must: the old replicas are freed and reads see the new tile.
    #[test]
    fn rewrite_replaces_the_file() {
        let d = dfs(2, 1);
        write(&d, "/f", &tile(1.0), 4, None).unwrap();
        let new = tile(2.0);
        write(&d, "/f", &new, 6, None).unwrap();
        assert_eq!(d.storage_stats(), (6, 6));
        assert!(d.storage_accounting().is_conserved());
        assert!(Arc::ptr_eq(&d.read_tile_file("/f", None).unwrap().0, &new));
    }

    #[test]
    fn delete_frees_replicas() {
        let d = dfs(3, 3);
        write(&d, "/f", &tile(1.0), 30, None).unwrap();
        d.delete_file("/f").unwrap();
        let (logical, physical) = d.storage_stats();
        assert_eq!((logical, physical), (0, 0));
        assert!(!d.exists("/f"));
        assert!(d.read_tile_file("/f", None).is_err());
    }

    #[test]
    fn kill_node_rereplicates() {
        let d = dfs(4, 2);
        let t = tile(3.0);
        write(&d, "/f", &t, 40, Some(NodeId(0))).unwrap();
        let receipt = d.kill_node(NodeId(0)).unwrap();
        assert!(
            receipt.bytes > 0,
            "under-replicated blocks should be copied"
        );
        // Data still fully readable.
        let (got, r) = d.read_tile_file("/f", None).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(r.bytes, 40);
        // Replication restored to 2 live replicas per block.
        let (logical, physical) = d.storage_stats();
        assert_eq!(logical, 40);
        assert_eq!(physical, 80);
    }

    #[test]
    fn storage_accounting_is_conserved_through_lifecycle() {
        let d = dfs(4, 3);
        let acc = d.storage_accounting();
        assert!(acc.is_conserved());
        assert_eq!(acc.datanode_bytes, 0);

        write(&d, "/f", &tile(2.0), 150, Some(NodeId(1))).unwrap();
        write(&d, "/g", &tile(5.0), 30, None).unwrap();
        let acc = d.storage_accounting();
        assert!(acc.is_conserved(), "after writes: {acc:?}");
        assert_eq!(acc.logical_bytes, 180);
        assert_eq!(acc.namenode_replica_bytes, 540);
        assert_eq!(acc.per_node.len(), 4);

        // A failure plus re-replication must keep both sides in step.
        d.kill_node(NodeId(1)).unwrap();
        let acc = d.storage_accounting();
        assert!(acc.is_conserved(), "after kill: {acc:?}");
        assert_eq!(acc.per_node[1], (0, 0), "dead node holds nothing");

        d.delete_file("/f").unwrap();
        let acc = d.storage_accounting();
        assert!(acc.is_conserved(), "after delete: {acc:?}");
        assert_eq!(acc.logical_bytes, 30);
    }

    #[test]
    fn kill_sole_replica_loses_block() {
        let d = dfs(2, 1);
        // Force placement on node 0 by writing from node 0 with replication 1.
        write(&d, "/f", &tile(1.0), 8, Some(NodeId(0))).unwrap();
        d.kill_node(NodeId(0)).unwrap();
        assert!(matches!(
            d.read_tile_file("/f", None),
            Err(DfsError::BlockLost { .. })
        ));
    }

    #[test]
    fn failed_write_rolls_back_namespace() {
        let d = dfs(1, 1);
        d.kill_node(NodeId(0)).unwrap();
        assert!(write(&d, "/f", &tile(1.0), 8, None).is_err());
        assert!(!d.exists("/f"), "ghost file left after failed write");
    }

    #[test]
    fn add_node_and_place_there() {
        let d = dfs(1, 2);
        let n = d.add_node();
        assert_eq!(n, NodeId(1));
        write(&d, "/f", &tile(1.0), 8, None).unwrap();
        let per_node = d.per_node_bytes();
        assert_eq!(per_node, vec![8, 8]);
    }

    #[test]
    fn is_local_hint() {
        let home = |d: &Dfs, path: &str| {
            let mut home = Vec::new();
            d.home_of(path, |n| home.push(n));
            home
        };
        let d = dfs(3, 1);
        write(&d, "/f", &tile(1.0), 8, Some(NodeId(2))).unwrap();
        assert_eq!(home(&d, "/f"), [NodeId(2)]);
        assert_eq!(home(&d, "/missing"), []);
        // Three 64-byte blocks at replication 2: a node holding only some
        // of them is not home.
        let d = dfs(4, 2);
        write(&d, "/g", &tile(1.0), 150, Some(NodeId(0))).unwrap();
        let (first, rest): (Vec<NodeId>, Vec<Vec<NodeId>>) = {
            let st = d.state.lock();
            let blocks = &st.namenode.stat("/g").unwrap().blocks;
            (
                blocks[0].replicas.clone(),
                blocks[1..].iter().map(|b| b.replicas.clone()).collect(),
            )
        };
        let want: Vec<NodeId> = first
            .into_iter()
            .filter(|n| rest.iter().all(|r| r.contains(n)))
            .collect();
        assert_eq!(home(&d, "/g"), want);
        assert!(want.contains(&NodeId(0)), "the writer holds every block");
        d.kill_node(NodeId(0)).unwrap();
        assert!(
            !home(&d, "/g").contains(&NodeId(0)),
            "dead nodes are no home"
        );
        // Replication 1, every holder dead: the file has no home at all.
        let d = dfs(2, 1);
        write(&d, "/h", &tile(1.0), 8, Some(NodeId(1))).unwrap();
        d.kill_node(NodeId(1)).unwrap();
        assert_eq!(home(&d, "/h"), []);
    }

    #[test]
    fn list_files() {
        let d = dfs(2, 1);
        write(&d, "/m/a", &tile(1.0), 1, None).unwrap();
        write(&d, "/m/b", &tile(1.0), 1, None).unwrap();
        assert_eq!(d.list("/m/"), vec!["/m/a", "/m/b"]);
    }

    #[test]
    fn empty_file() {
        let d = dfs(2, 2);
        let t = Arc::new(Tile::zeros(0, 0));
        let w = write(&d, "/e", &t, 0, None).unwrap();
        assert_eq!(w.bytes, 0);
        let (got, r) = d.read_tile_file("/e", None).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn read_fails_over_to_surviving_replica() {
        // With replication 2 the first replica in the list may sit on a dead
        // node whose metadata was never decommissioned (e.g. a transiently
        // unreachable datanode). Simulate the "replica list stale" case by
        // evicting the payload from the first replica without touching the
        // namenode, and check the read fails over instead of surfacing loss.
        let d = dfs(4, 2);
        let t = tile(5.0);
        write(&d, "/f", &t, 40, Some(NodeId(1))).unwrap();
        {
            let mut st = d.state.lock();
            let blocks = st.namenode.stat("/f").unwrap().blocks.clone();
            for b in &blocks {
                let first = b.replicas[0];
                st.datanodes[first.0 as usize].evict(b.id);
            }
        }
        let (got, r) = d.read_tile_file("/f", None).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(r.bytes, 40);
    }

    #[test]
    fn block_lost_only_when_no_replica_serves() {
        let d = dfs(3, 2);
        write(&d, "/f", &tile(5.0), 16, Some(NodeId(0))).unwrap();
        {
            let mut st = d.state.lock();
            let blocks = st.namenode.stat("/f").unwrap().blocks.clone();
            for b in &blocks {
                for &rep in &b.replicas {
                    st.datanodes[rep.0 as usize].evict(b.id);
                }
            }
        }
        assert!(matches!(
            d.read_tile_file("/f", None),
            Err(DfsError::BlockLost { .. })
        ));
    }

    #[test]
    fn liveness_accessors() {
        let d = dfs(3, 1);
        assert!(d.is_node_live(NodeId(2)));
        assert_eq!(d.live_nodes().len(), 3);
        d.kill_node(NodeId(1)).unwrap();
        assert!(!d.is_node_live(NodeId(1)));
        assert_eq!(d.live_nodes(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn write_tile_file_overrides_replication() {
        let d = dfs(4, 1);
        d.write_tile_file("/ckpt", tile(1.0), 30, None, 3).unwrap();
        let (logical, physical) = d.storage_stats();
        assert_eq!(logical, 30);
        assert_eq!(physical, 90);
    }
}

#[cfg(test)]
mod handle_plane_tests {
    use super::tests::write;
    use super::*;
    use cumulon_matrix::serialize::encoded_len;

    fn dfs(nodes: u32, replication: usize, seed: u64) -> Dfs {
        Dfs::new(
            nodes,
            DfsConfig {
                replication,
                block_size: 64,
                seed,
                racks: 1,
            },
        )
    }

    fn tile() -> Arc<Tile> {
        Arc::new(Tile::dense(cumulon_matrix::gen::dense_uniform_tile(
            3, 0, 0, 5, 4, -1.0, 1.0,
        )))
    }

    /// Block layout, placement, receipts and counters are a function of
    /// the wire length alone: a real tile and a 1×1 stand-in written at
    /// the same length into two same-seed instances are indistinguishable
    /// to every counter.
    #[test]
    fn placement_and_receipts_depend_on_wire_length_only() {
        let t = tile();
        let wire = encoded_len(&t);
        let a = dfs(4, 2, 99);
        let b = dfs(4, 2, 99);
        let ra = write(&a, "/t", &t, wire, Some(NodeId(1))).unwrap();
        let rb = write(&b, "/t", &super::tests::tile(0.0), wire, Some(NodeId(1))).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.storage_stats(), b.storage_stats());
        let layout = |d: &Dfs| {
            let st = d.state.lock();
            let m = st.namenode.stat("/t").unwrap();
            let replicas: Vec<_> = m.blocks.iter().map(|x| x.replicas.clone()).collect();
            (m.len(), replicas)
        };
        assert_eq!(layout(&a), layout(&b));
        let (_, rr_a) = a.read_tile_file("/t", Some(NodeId(0))).unwrap();
        let (_, rr_b) = b.read_tile_file("/t", Some(NodeId(0))).unwrap();
        assert_eq!(rr_a, rr_b);
        assert_eq!(a.storage_accounting(), b.storage_accounting());
    }

    #[test]
    fn read_tile_file_returns_shared_handle() {
        let d = dfs(3, 2, 5);
        let t = tile();
        d.write_tile_file("/t", Arc::clone(&t), encoded_len(&t), Some(NodeId(0)), 2)
            .unwrap();
        let (got, _) = d.read_tile_file("/t", Some(NodeId(0))).unwrap();
        assert!(Arc::ptr_eq(&got, &t), "no copy on read");
    }

    #[test]
    fn handle_survives_node_kill_via_rereplication() {
        let d = dfs(4, 2, 3);
        let t = tile();
        d.write_tile_file("/t", Arc::clone(&t), encoded_len(&t), Some(NodeId(0)), 2)
            .unwrap();
        d.kill_node(NodeId(0)).unwrap();
        let (got, _) = d.read_tile_file("/t", None).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
    }

    /// A dirty demotion writes under a key of its own: files holding one
    /// and the same tile get one entry each, and a file rewritten and
    /// demoted again gets a key no earlier entry had.
    #[test]
    fn dirty_demotions_write_under_keys_of_their_own() {
        let d = dfs(4, 2, 11);
        let t = tile();
        let wire = encoded_len(&t);
        // One resident file fits; a second write demotes the colder one.
        d.set_spill_config(&SpillConfig::budgeted(wire)).unwrap();
        let key_of = |path: &str| {
            let st = d.state.lock();
            st.spill.as_ref().unwrap().spilled(path).unwrap().key
        };
        let mut keys = Vec::new();
        for (path, next) in [("/a", "/b"), ("/b", "/c"), ("/c", "/a"), ("/a", "/d")] {
            if keys.is_empty() {
                write(&d, path, &t, wire, None).unwrap();
            }
            // Rewriting the spilled `/a` gives its entry up.
            write(&d, next, &t, wire, None).unwrap();
            keys.push(key_of(path));
            assert!(d.spill_conserved());
        }
        let mut distinct = keys.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{keys:?}");
        let st = d.spill_stats().unwrap();
        assert_eq!((st.evictions, st.clean_evictions), (4, 0));
        assert_eq!(st.blob.dedup_hits, 0);
        assert_eq!(st.blob.live_entries, 3, "/a's first entry was released");
        assert_eq!(st.blob.raw_bytes_written, 4 * wire);
        let (got, _) = d.read_tile_file("/b", None).unwrap();
        assert_eq!(*got, *t);
    }

    #[test]
    fn multi_block_handle_file_roundtrips() {
        // block_size 64 splits the ~180-byte encoding into several
        // blocks that all share the one Arc; the read charges every one.
        let d = dfs(4, 2, 3);
        let t = tile();
        let wire = encoded_len(&t);
        assert!(wire > 64, "test needs a multi-block file");
        d.write_tile_file("/t", Arc::clone(&t), wire, None, 2)
            .unwrap();
        {
            let st = d.state.lock();
            assert!(st.namenode.stat("/t").unwrap().blocks.len() > 1);
        }
        let (got, r) = d.read_tile_file("/t", None).unwrap();
        assert_eq!(r.bytes, wire);
        assert!(Arc::ptr_eq(&got, &t));
    }
}

#[cfg(test)]
mod rack_tests {
    use super::tests::{tile, write};
    use super::*;

    fn rack_dfs(nodes: u32, racks: u32, replication: usize, seed: u64) -> Dfs {
        Dfs::new(
            nodes,
            DfsConfig {
                replication,
                block_size: 1 << 20,
                seed,
                racks,
            },
        )
    }

    #[test]
    fn second_replica_always_off_rack() {
        // 6 nodes, 2 racks (even/odd), replication 2: every block must span
        // both racks.
        let d = rack_dfs(6, 2, 2, 11);
        for i in 0..20 {
            let path = format!("/f{i}");
            write(&d, &path, &tile(1.0), 64, Some(NodeId(i % 6))).unwrap();
            let st = d.state.lock();
            let meta = st.namenode.stat(&path).unwrap();
            for block in &meta.blocks {
                let racks: std::collections::BTreeSet<u32> = block
                    .replicas
                    .iter()
                    .map(|&n| d.config.rack_of(n))
                    .collect();
                assert_eq!(
                    racks.len(),
                    2,
                    "block replicas {:?} in one rack",
                    block.replicas
                );
            }
        }
    }

    #[test]
    fn rack_failure_loses_nothing_with_rack_aware_placement() {
        let d = rack_dfs(8, 2, 2, 5);
        let tiles: Vec<Arc<Tile>> = (0..10).map(|i| tile(i as f64)).collect();
        for (i, t) in tiles.iter().enumerate() {
            write(&d, &format!("/f{i}"), t, 200, Some(NodeId(i as u32 % 8))).unwrap();
        }
        let receipt = d.kill_rack(0).unwrap();
        assert!(receipt.bytes > 0, "survivors must re-replicate");
        for (i, t) in tiles.iter().enumerate() {
            let (got, _) = d.read_tile_file(&format!("/f{i}"), None).unwrap();
            assert!(Arc::ptr_eq(&got, t));
        }
    }

    #[test]
    fn flat_topology_can_lose_data_on_correlated_failure() {
        // racks = 1 (no fault domains): a simultaneous failure of the
        // "even" half can destroy blocks whose two replicas happened to be
        // colocated there. With a seed search we assert the *possibility*
        // by finding one configuration where it happens.
        let mut lost_somewhere = false;
        for seed in 0..20 {
            let d = rack_dfs(8, 1, 2, seed);
            for i in 0..10 {
                write(
                    &d,
                    &format!("/f{i}"),
                    &tile(i as f64),
                    200,
                    Some(NodeId(i % 8)),
                )
                .unwrap();
            }
            // Simultaneous correlated failure of the even half.
            d.kill_nodes(&[NodeId(0), NodeId(2), NodeId(4), NodeId(6)])
                .unwrap();
            let any_lost = (0..10).any(|i| d.read_tile_file(&format!("/f{i}"), None).is_err());
            if any_lost {
                lost_somewhere = true;
                break;
            }
        }
        assert!(
            lost_somewhere,
            "without fault domains, some placement should colocate both replicas"
        );
    }

    #[test]
    fn rack_failure_with_rack_placement_vs_flat_placement() {
        // The same correlated failure (all of rack 0 at once) that the
        // rack-aware layout survives can destroy data under flat layout.
        let aware = rack_dfs(8, 2, 2, 13);
        for i in 0..16 {
            write(
                &aware,
                &format!("/f{i}"),
                &tile(7.0),
                100,
                Some(NodeId(i % 8)),
            )
            .unwrap();
        }
        aware.kill_rack(0).unwrap();
        for i in 0..16 {
            assert!(
                aware.read_tile_file(&format!("/f{i}"), None).is_ok(),
                "rack-aware lost /f{i}"
            );
        }
    }

    #[test]
    fn rack_of_mapping() {
        let c = DfsConfig {
            racks: 3,
            ..Default::default()
        };
        assert_eq!(c.rack_of(NodeId(0)), 0);
        assert_eq!(c.rack_of(NodeId(4)), 1);
        assert_eq!(c.rack_of(NodeId(5)), 2);
        let flat = DfsConfig::default();
        assert_eq!(flat.rack_of(NodeId(7)), 0);
    }

    #[test]
    fn remote_read_prefers_same_rack_replica() {
        // Replication 2 across 2 racks guarantees one replica per rack.
        // A reader that holds no replica must be served by the replica in
        // its own rack, not blindly by the first replica in the list.
        let d = rack_dfs(6, 2, 2, 17);
        for i in 0..10 {
            let path = format!("/f{i}");
            write(&d, &path, &tile(1.0), 64, Some(NodeId(i % 6))).unwrap();
            let (replicas, before): (Vec<NodeId>, Vec<u64>) = {
                let st = d.state.lock();
                let reps = st.namenode.stat(&path).unwrap().blocks[0].replicas.clone();
                let reads = reps
                    .iter()
                    .map(|&n| st.datanodes[n.0 as usize].bytes_read_total())
                    .collect();
                (reps, reads)
            };
            // A reader in rack 0 that holds no replica itself.
            let reader = (0..6)
                .map(NodeId)
                .find(|n| d.config.rack_of(*n) == 0 && !replicas.contains(n))
                .unwrap();
            d.read_tile_file(&path, Some(reader)).unwrap();
            let st = d.state.lock();
            for (j, &rep) in replicas.iter().enumerate() {
                let after = st.datanodes[rep.0 as usize].bytes_read_total();
                if d.config.rack_of(rep) == 0 {
                    assert!(after > before[j], "same-rack replica should serve");
                } else {
                    assert_eq!(after, before[j], "off-rack replica should be idle");
                }
            }
        }
    }

    #[test]
    fn single_rack_cluster_placement_still_works() {
        // racks = 2 but all even nodes dead: placement degrades gracefully
        // to one rack instead of failing.
        let d = rack_dfs(4, 2, 2, 3);
        d.kill_node(NodeId(1)).unwrap();
        d.kill_node(NodeId(3)).unwrap();
        let t = tile(9.0);
        write(&d, "/f", &t, 32, Some(NodeId(0))).unwrap();
        let (got, r) = d.read_tile_file("/f", None).unwrap();
        assert!(Arc::ptr_eq(&got, &t));
        assert_eq!(r.bytes, 32);
    }
}
