//! Datanode block storage.
//!
//! A block holds one payload, the tile, in one of two residencies:
//!
//! * **resident** (`BlockPayload::Tile`) — a shared `Arc<Tile>` plus the
//!   exact wire length the encoded block would occupy. Every
//!   byte-accounting counter uses that wire length, so receipts,
//!   placement and storage statistics price a block as the bytes a real
//!   DFS would store, without the bytes existing;
//! * **spilled** (`BlockPayload::Spilled`) — a resident block whose
//!   decoded tile was demoted to the on-disk blob store by the
//!   memory-budgeted spill plane. It carries the same wire length the
//!   handle carried, so every counter stays bitwise-identical; the next
//!   read re-admits the tile through `Dfs::read_tile_file`.

use std::collections::HashMap;
use std::sync::Arc;

use cumulon_matrix::Tile;

use crate::blob::BlobKey;

/// Globally unique block identifier, allocated by the namenode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct BlockId(pub u64);

/// The stored form of one block replica.
#[derive(Debug, Clone)]
pub(crate) enum BlockPayload {
    /// Zero-copy tile handle. `len` is the wire length this block would have
    /// if encoded — for single-block tile files that is the full encoding;
    /// large tiles split into multiple handle blocks that each carry a slice
    /// of the wire length while sharing the same `Arc`.
    Tile {
        /// Shared payload — cloning a replica clones the handle, not data.
        tile: Arc<Tile>,
        /// Wire length in bytes charged for this block.
        len: u64,
    },
    /// Resident block demoted to the blob store by the spill plane.
    /// `len` is the wire length the resident handle carried — preserved
    /// exactly so residency is invisible to all byte accounting.
    Spilled {
        /// Key of the blob entry the owning file holds.
        key: BlobKey,
        /// Wire length in bytes charged for this block.
        len: u64,
    },
}

impl BlockPayload {
    /// The length used for every byte-accounting purpose.
    pub(crate) fn len(&self) -> u64 {
        match self {
            BlockPayload::Tile { len, .. } => *len,
            BlockPayload::Spilled { len, .. } => *len,
        }
    }
}

/// Storage of one simulated datanode: block payloads plus usage counters.
#[derive(Debug, Default)]
pub(crate) struct DataNode {
    blocks: HashMap<BlockId, BlockPayload>,
    bytes_stored: u64,
    /// Cumulative bytes ever read from this node (tests check which
    /// replica served a read).
    #[cfg(test)]
    bytes_read_total: u64,
}

impl DataNode {
    /// Creates an empty datanode.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores a block replica.
    pub(crate) fn put(&mut self, id: BlockId, data: BlockPayload) {
        let len = data.len();
        if let Some(old) = self.blocks.insert(id, data) {
            self.bytes_stored -= old.len();
        }
        self.bytes_stored += len;
    }

    /// Fetches a block replica (test builds count the read).
    pub(crate) fn get(&mut self, id: BlockId) -> Option<BlockPayload> {
        let data = self.blocks.get(&id).cloned();
        #[cfg(test)]
        if let Some(d) = &data {
            self.bytes_read_total += d.len();
        }
        data
    }

    /// True if the node holds a replica of `id`.
    pub(crate) fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Non-counting peek at a replica (spill-plane internals only — real
    /// reads go through [`DataNode::get`] so they are charged).
    pub(crate) fn peek(&self, id: BlockId) -> Option<&BlockPayload> {
        self.blocks.get(&id)
    }

    /// Replaces a replica's payload in place **without touching any byte
    /// counter**. The spill plane uses this to demote a resident tile to
    /// a [`BlockPayload::Spilled`] reference and to re-admit it later;
    /// both directions preserve the charged wire length, so storage
    /// accounting and receipts cannot observe residency. Returns `false`
    /// if the node holds no replica of `id`.
    pub(crate) fn swap_payload(&mut self, id: BlockId, payload: BlockPayload) -> bool {
        match self.blocks.get_mut(&id) {
            Some(slot) => {
                debug_assert_eq!(
                    slot.len(),
                    payload.len(),
                    "residency swaps must be counter-neutral"
                );
                *slot = payload;
                true
            }
            None => false,
        }
    }

    /// Drops a replica if present, returning its size.
    pub(crate) fn evict(&mut self, id: BlockId) -> u64 {
        match self.blocks.remove(&id) {
            Some(d) => {
                self.bytes_stored -= d.len();
                d.len()
            }
            None => 0,
        }
    }

    /// Bytes currently stored.
    pub(crate) fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Number of block replicas stored.
    pub(crate) fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Lifetime read volume.
    #[cfg(test)]
    pub(crate) fn bytes_read_total(&self) -> u64 {
        self.bytes_read_total
    }

    /// Ids of all blocks held (for re-replication after failures).
    pub(crate) fn block_ids(&self) -> Vec<BlockId> {
        self.blocks.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resident block of a 1×1 tile charged at `len` wire bytes.
    fn block(len: u64) -> BlockPayload {
        BlockPayload::Tile {
            tile: Arc::new(Tile::zeros(1, 1)),
            len,
        }
    }

    #[test]
    fn put_get_evict() {
        let mut n = DataNode::new();
        let tile = Arc::new(Tile::zeros(1, 1));
        let len = 5;
        n.put(
            BlockId(1),
            BlockPayload::Tile {
                tile: Arc::clone(&tile),
                len,
            },
        );
        assert_eq!(n.bytes_stored(), 5);
        assert_eq!(n.block_count(), 1);
        assert!(n.contains(BlockId(1)));
        match n.get(BlockId(1)).unwrap() {
            BlockPayload::Tile { tile: t, len } => {
                assert!(Arc::ptr_eq(&t, &tile));
                assert_eq!(len, 5);
            }
            other => panic!("expected a tile handle, got {other:?}"),
        }
        assert_eq!(n.bytes_read_total(), 5);
        assert_eq!(n.evict(BlockId(1)), 5);
        assert_eq!(n.bytes_stored(), 0);
        assert_eq!(n.evict(BlockId(1)), 0);
    }

    #[test]
    fn put_overwrite_adjusts_usage() {
        let mut n = DataNode::new();
        n.put(BlockId(1), block(4));
        n.put(BlockId(1), block(2));
        assert_eq!(n.bytes_stored(), 2);
    }

    #[test]
    fn missing_block_is_none() {
        let mut n = DataNode::new();
        assert!(n.get(BlockId(9)).is_none());
        assert_eq!(n.bytes_read_total(), 0);
    }

    #[test]
    fn block_ids_lists_all() {
        let mut n = DataNode::new();
        n.put(BlockId(1), block(1));
        n.put(BlockId(2), block(1));
        let mut ids = n.block_ids();
        ids.sort();
        assert_eq!(ids, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn tile_handle_counters_use_wire_len() {
        let mut n = DataNode::new();
        let tile = Arc::new(Tile::zeros(4, 4));
        n.put(
            BlockId(7),
            BlockPayload::Tile {
                tile: Arc::clone(&tile),
                len: 152,
            },
        );
        assert_eq!(n.bytes_stored(), 152);
        match n.get(BlockId(7)).unwrap() {
            BlockPayload::Tile { tile: t, len } => {
                assert!(Arc::ptr_eq(&t, &tile), "replica shares the Arc");
                assert_eq!(len, 152);
            }
            other => panic!("expected tile handle, got {other:?}"),
        }
        assert_eq!(n.bytes_read_total(), 152);
        assert_eq!(n.evict(BlockId(7)), 152);
        assert_eq!(n.bytes_stored(), 0);
    }

    #[test]
    fn swap_payload_is_counter_neutral() {
        let mut n = DataNode::new();
        let tile = Arc::new(Tile::zeros(4, 4));
        n.put(
            BlockId(3),
            BlockPayload::Tile {
                tile: Arc::clone(&tile),
                len: 152,
            },
        );
        let (stored, read) = (n.bytes_stored(), n.bytes_read_total());
        let key = BlobKey::digest(b"frame");
        assert!(n.swap_payload(BlockId(3), BlockPayload::Spilled { key, len: 152 }));
        assert_eq!(n.bytes_stored(), stored);
        assert_eq!(n.bytes_read_total(), read);
        match n.peek(BlockId(3)).unwrap() {
            BlockPayload::Spilled { key: k, len } => {
                assert_eq!(*k, key);
                assert_eq!(*len, 152);
            }
            other => panic!("expected spilled reference, got {other:?}"),
        }
        // Swap back: also neutral, and a peek never counts a read.
        assert!(n.swap_payload(BlockId(3), BlockPayload::Tile { tile, len: 152 }));
        assert_eq!(n.bytes_read_total(), read);
        assert!(!n.swap_payload(BlockId(99), BlockPayload::Spilled { key, len: 0 }));
    }
}
