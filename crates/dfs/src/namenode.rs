//! Namenode metadata: the file namespace and the datanode registry.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::datanode::BlockId;
use crate::dfs::NodeId;
use crate::error::{DfsError, Result};

/// Metadata of one block: id, size and replica locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block identifier.
    pub id: BlockId,
    /// Payload size in bytes: the *wire* (encoded) length, although the
    /// block stores an `Arc<Tile>` rather than bytes — so placement,
    /// stats, and receipts price the encoding.
    pub len: u64,
    /// Datanodes currently holding a replica.
    pub replicas: Vec<NodeId>,
}

/// Metadata of one file: an ordered list of blocks.
#[derive(Debug, Clone, Default)]
pub struct FileMeta {
    /// Blocks in file order.
    pub blocks: Vec<BlockMeta>,
}

impl FileMeta {
    /// Total file length in bytes.
    pub fn len(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).sum()
    }

    /// True when the file holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The namenode: file namespace, block allocation, and node liveness.
///
/// The namespace is a hash map keyed by shared path strings: a lookup is
/// one hash of the path, and a file's one path allocation is shared with
/// the reverse block index. Hash order is never observable: the two
/// results that walk the namespace sort at the boundary — [`NameNode::list`]
/// (and through it the DFS's drain and spill-adoption order) and
/// [`DecommissionReport::lost`] — and every other walk is an
/// order-independent sum. The live-node list is kept sorted, so placement
/// draws from the same sequence whatever order nodes came and went in.
#[derive(Debug, Default)]
pub struct NameNode {
    files: HashMap<Arc<str>, FileMeta>,
    /// Live datanode ids, sorted.
    live_nodes: Vec<NodeId>,
    next_block: u64,
    /// Reverse index: block → owning path + index, for failure handling.
    block_index: HashMap<BlockId, (Arc<str>, usize)>,
}

impl NameNode {
    /// Creates a namenode with `nodes` live datanodes (ids `0..nodes`).
    pub fn new(nodes: u32) -> Self {
        NameNode {
            live_nodes: (0..nodes).map(NodeId).collect(),
            ..NameNode::default()
        }
    }

    /// Registers an additional datanode (cluster grow).
    pub fn register_node(&mut self, node: NodeId) {
        if let Err(at) = self.live_nodes.binary_search(&node) {
            self.live_nodes.insert(at, node);
        }
    }

    /// Marks a datanode dead, removing it from all replica lists. Returns
    /// the blocks that dropped below one replica (lost, in path order) and
    /// those that still have replicas but fewer than before
    /// (under-replicated, in no particular order).
    pub fn decommission_node(&mut self, node: NodeId) -> DecommissionReport {
        if let Ok(at) = self.live_nodes.binary_search(&node) {
            self.live_nodes.remove(at);
        }
        let mut lost = Vec::new();
        let mut under_replicated = Vec::new();
        for (path, meta) in &mut self.files {
            for (idx, block) in meta.blocks.iter_mut().enumerate() {
                let before = block.replicas.len();
                block.replicas.retain(|&n| n != node);
                if block.replicas.len() < before {
                    if block.replicas.is_empty() {
                        lost.push((Arc::clone(path), idx));
                    } else {
                        under_replicated.push(block.id);
                    }
                }
            }
        }
        lost.sort_unstable();
        DecommissionReport {
            lost,
            under_replicated,
        }
    }

    /// Live datanode ids, sorted (deterministic placement).
    pub fn live_nodes(&self) -> &[NodeId] {
        &self.live_nodes
    }

    /// True when the node is live.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live_nodes.binary_search(&node).is_ok()
    }

    /// Allocates a fresh block id.
    pub fn allocate_block(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    /// Creates a file entry; fails if the path exists. Returns the
    /// namespace's key for the path, which [`NameNode::append_block`]
    /// shares instead of allocating the path again.
    pub fn create_file(&mut self, path: &str) -> Result<Arc<str>> {
        match self.files.entry(Arc::from(path)) {
            Entry::Occupied(_) => Err(DfsError::AlreadyExists(path.to_string())),
            Entry::Vacant(v) => {
                let key = Arc::clone(v.key());
                v.insert(FileMeta::default());
                Ok(key)
            }
        }
    }

    /// Appends a block record to an existing file.
    pub fn append_block(&mut self, path: &Arc<str>, block: BlockMeta) -> Result<()> {
        let meta = self
            .files
            .get_mut(&**path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        self.block_index
            .insert(block.id, (Arc::clone(path), meta.blocks.len()));
        meta.blocks.push(block);
        Ok(())
    }

    /// Looks up file metadata.
    pub fn stat(&self, path: &str) -> Result<&FileMeta> {
        self.file(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// File metadata, or `None` — without building an error — when there
    /// is no file at `path`.
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// True if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Removes a file, returning its block metadata for replica cleanup.
    pub fn delete_file(&mut self, path: &str) -> Result<Vec<BlockMeta>> {
        let meta = self
            .files
            .remove(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        for b in &meta.blocks {
            self.block_index.remove(&b.id);
        }
        Ok(meta.blocks)
    }

    /// Lists paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut paths: Vec<String> = self
            .files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .map(|p| p.to_string())
            .collect();
        paths.sort_unstable();
        paths
    }

    /// Records an extra replica for a block (re-replication).
    pub fn add_replica(&mut self, id: BlockId, node: NodeId) -> Result<()> {
        let (path, idx) = self
            .block_index
            .get(&id)
            .ok_or_else(|| DfsError::FileNotFound(format!("block {id:?}")))?;
        let idx = *idx;
        let meta = self
            .files
            .get_mut(&**path)
            .expect("index points at live file");
        let block = &mut meta.blocks[idx];
        if !block.replicas.contains(&node) {
            block.replicas.push(node);
        }
        Ok(())
    }

    /// Total bytes across all files (logical, not × replication).
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(FileMeta::len).sum()
    }

    /// Expected *physical* bytes: Σ over all blocks of `len × replica
    /// count`. This is the namenode's claim of what the datanodes
    /// collectively store; byte conservation says the datanodes' own
    /// counters must agree exactly, on both payload planes.
    pub fn replicated_bytes(&self) -> u64 {
        self.files
            .values()
            .flat_map(|f| &f.blocks)
            .map(|b| b.len * b.replicas.len() as u64)
            .sum()
    }

    /// Total replica count across all blocks (the number of block copies
    /// the datanodes should collectively hold).
    pub fn replica_count(&self) -> usize {
        self.files
            .values()
            .flat_map(|f| &f.blocks)
            .map(|b| b.replicas.len())
            .sum()
    }

    /// Expected stored bytes per datanode, from block metadata alone.
    pub fn per_node_replica_bytes(&self) -> BTreeMap<NodeId, u64> {
        let mut out = BTreeMap::new();
        for block in self.files.values().flat_map(|f| &f.blocks) {
            for &node in &block.replicas {
                *out.entry(node).or_insert(0) += block.len;
            }
        }
        out
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// Outcome of a node decommission.
#[derive(Debug, Default)]
pub struct DecommissionReport {
    /// `(path, block index)` pairs whose last replica was on the dead
    /// node, in path order.
    pub lost: Vec<(Arc<str>, usize)>,
    /// Blocks that survive but are now under-replicated.
    pub under_replicated: Vec<BlockId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(nn: &mut NameNode, replicas: Vec<NodeId>) -> BlockMeta {
        BlockMeta {
            id: nn.allocate_block(),
            len: 100,
            replicas,
        }
    }

    #[test]
    fn create_and_stat() {
        let mut nn = NameNode::new(3);
        let path = nn.create_file("/m/a").unwrap();
        let b = block(&mut nn, vec![NodeId(0), NodeId(1)]);
        nn.append_block(&path, b).unwrap();
        assert_eq!(nn.stat("/m/a").unwrap().len(), 100);
        assert!(nn.exists("/m/a"));
        assert_eq!(nn.total_bytes(), 100);
        assert_eq!(nn.file_count(), 1);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut nn = NameNode::new(1);
        nn.create_file("/x").unwrap();
        assert!(matches!(
            nn.create_file("/x"),
            Err(DfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_file_errors() {
        let mut nn = NameNode::new(1);
        assert!(nn.stat("/nope").is_err());
        assert!(nn.delete_file("/nope").is_err());
        let b = BlockMeta {
            id: BlockId(0),
            len: 1,
            replicas: vec![],
        };
        assert!(nn.append_block(&Arc::from("/nope"), b).is_err());
    }

    #[test]
    fn list_by_prefix() {
        let mut nn = NameNode::new(1);
        for p in ["/m/a/0_0", "/m/a/0_1", "/m/b/0_0", "/z"] {
            nn.create_file(p).unwrap();
        }
        assert_eq!(nn.list("/m/a/"), vec!["/m/a/0_0", "/m/a/0_1"]);
        assert_eq!(nn.list("/m/").len(), 3);
        assert!(nn.list("/q").is_empty());
    }

    #[test]
    fn decommission_tracks_loss_and_under_replication() {
        let mut nn = NameNode::new(3);
        let path = nn.create_file("/f").unwrap();
        let b1 = block(&mut nn, vec![NodeId(0), NodeId(1)]);
        let b1_id = b1.id;
        let b2 = block(&mut nn, vec![NodeId(0)]);
        nn.append_block(&path, b1).unwrap();
        nn.append_block(&path, b2).unwrap();

        let report = nn.decommission_node(NodeId(0));
        assert_eq!(report.lost, vec![(path, 1)]);
        assert_eq!(report.under_replicated, vec![b1_id]);
        assert!(!nn.is_live(NodeId(0)));
        assert_eq!(nn.live_nodes(), [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn add_replica_after_rereplication() {
        let mut nn = NameNode::new(3);
        let path = nn.create_file("/f").unwrap();
        let b = block(&mut nn, vec![NodeId(0)]);
        let id = b.id;
        nn.append_block(&path, b).unwrap();
        nn.add_replica(id, NodeId(2)).unwrap();
        nn.add_replica(id, NodeId(2)).unwrap(); // idempotent
        assert_eq!(
            nn.stat("/f").unwrap().blocks[0].replicas,
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn delete_returns_blocks() {
        let mut nn = NameNode::new(2);
        let path = nn.create_file("/f").unwrap();
        let b = block(&mut nn, vec![NodeId(1)]);
        nn.append_block(&path, b).unwrap();
        let blocks = nn.delete_file("/f").unwrap();
        assert_eq!(blocks.len(), 1);
        assert!(!nn.exists("/f"));
    }

    #[test]
    fn register_node_grows_cluster() {
        let mut nn = NameNode::new(1);
        nn.register_node(NodeId(5));
        assert!(nn.is_live(NodeId(5)));
        assert_eq!(nn.live_nodes().len(), 2);
    }
}
