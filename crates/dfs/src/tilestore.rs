//! The tile store: named matrices whose tiles live in the DFS.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use cumulon_matrix::gen::Generator;
use cumulon_matrix::serialize::encoded_len;
use cumulon_matrix::{LocalMatrix, MatrixMeta, Tile};

use crate::dfs::{Dfs, IoReceipt, NodeId};
use crate::error::{DfsError, Result};
use crate::spill::SpillConfig;

/// Registry entry for a stored matrix.
#[derive(Debug, Clone)]
pub struct MatrixHandle {
    /// Matrix name (unique within the store).
    pub name: String,
    /// Logical dimensions and tiling.
    pub meta: MatrixMeta,
    /// Optional generator: tiles of generated matrices are produced on
    /// demand by tasks instead of being read from the DFS.
    pub generator: Option<Generator>,
}

/// A registered matrix: its handle and, for a generated one, the phantom
/// tiles Simulated reads share.
struct Entry {
    handle: MatrixHandle,
    /// One phantom per tile shape of a generated matrix, indexed by
    /// [`phantom_slot`]: interior, last column, last row, corner. Empty
    /// for a stored matrix.
    phantoms: Vec<Arc<Tile>>,
}

impl Entry {
    fn new(handle: MatrixHandle) -> Self {
        let phantoms = match &handle.generator {
            Some(generator) => shared_phantoms(&handle.meta, generator),
            None => Vec::new(),
        };
        Entry { handle, phantoms }
    }

    /// The shared phantom of tile `(ti, tj)`, for a generated matrix.
    fn phantom(&self, ti: usize, tj: usize) -> Option<Arc<Tile>> {
        let slot = phantom_slot(&self.handle.meta, ti, tj);
        self.phantoms.get(slot).cloned()
    }
}

/// Which of a matrix's four tile shapes tile `(ti, tj)` has: bit 1 set on
/// the last tile row, bit 0 on the last tile column.
fn phantom_slot(meta: &MatrixMeta, ti: usize, tj: usize) -> usize {
    let g = meta.grid();
    2 * usize::from(ti + 1 == g.tile_rows) + usize::from(tj + 1 == g.tile_cols)
}

/// A generated matrix's phantom tiles, one per [`phantom_slot`] — a
/// phantom depends on its tile's shape only, so four cover every tile.
/// Empty for an empty grid, which has no tile to read.
fn shared_phantoms(meta: &MatrixMeta, generator: &Generator) -> Vec<Arc<Tile>> {
    let g = meta.grid();
    if g.count() == 0 {
        return Vec::new();
    }
    (0..4)
        .map(|slot| {
            let ti = if slot & 2 == 0 { 0 } else { g.tile_rows - 1 };
            let tj = if slot & 1 == 0 { 0 } else { g.tile_cols - 1 };
            Arc::new(generator.generate_phantom(meta, ti, tj))
        })
        .collect()
}

struct StoreState {
    matrices: BTreeMap<String, Entry>,
}

/// Rescales an I/O receipt from the `actual` on-the-wire byte count to the
/// tile's `logical` stored size, preserving the local/remote split. Only
/// changes anything for phantom tiles (dense/sparse tiles encode at their
/// logical size, modulo a small header).
fn scale_receipt(r: IoReceipt, actual: u64, logical: u64) -> IoReceipt {
    if actual == 0 || actual == logical {
        return r;
    }
    let f = logical as f64 / actual as f64;
    IoReceipt {
        bytes: (r.bytes as f64 * f).round() as u64,
        local_bytes: (r.local_bytes as f64 * f).round() as u64,
        remote_bytes: (r.remote_bytes as f64 * f).round() as u64,
    }
}

/// Maps `(matrix, ti, tj)` to DFS tile files, and synthesizes the tiles of
/// generated matrices.
///
/// Cheap to clone; shares state through `Arc`.
#[derive(Clone)]
pub struct TileStore {
    dfs: Dfs,
    state: Arc<RwLock<StoreState>>,
}

impl TileStore {
    /// Creates a tile store over a DFS.
    pub fn new(dfs: Dfs) -> Self {
        TileStore {
            dfs,
            state: Arc::new(RwLock::new(StoreState {
                matrices: BTreeMap::new(),
            })),
        }
    }

    /// The underlying DFS.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Installs (or removes) a memory budget over the whole tile plane:
    /// the DFS handle plane gains the LRU spill plane ([`crate::spill`])
    /// that demotes cold tiles to append-only blob segments on local disk.
    /// The store holds nothing else: a generated tile is regenerated on
    /// every read and never retained, so the budget bounds every tile the
    /// store keeps. A budget of zero restores the unbounded seed behaviour
    /// (no spilling). Shared through the store's `Arc`s, so every clone —
    /// including the ones task contexts hold — sees the budget. Spilling
    /// is observational: results, receipts, billing and placement are
    /// bitwise-identical at any budget; only wall-clock time and host
    /// memory footprint change.
    pub fn set_memory_budget(&self, config: &SpillConfig) -> Result<()> {
        self.dfs.set_spill_config(config)
    }

    fn tile_path(name: &str, ti: usize, tj: usize) -> String {
        format!("/matrix/{name}/{ti}_{tj}")
    }

    /// Runs `f` on [`TileStore::tile_path`], formatted into a stack buffer
    /// when it fits (any name under ~90 bytes), so a lookup by path
    /// allocates nothing.
    fn with_tile_path<R>(name: &str, ti: usize, tj: usize, f: impl FnOnce(&str) -> R) -> R {
        use std::io::Write;
        let mut buf = [0u8; 128];
        let mut rest = &mut buf[..];
        if write!(rest, "/matrix/{name}/{ti}_{tj}").is_err() {
            return f(&Self::tile_path(name, ti, tj));
        }
        let len = 128 - rest.len();
        f(std::str::from_utf8(&buf[..len]).expect("formatted from a str and integers"))
    }

    /// Registers a stored (non-generated) matrix.
    pub fn register(&self, name: &str, meta: MatrixMeta) -> Result<MatrixHandle> {
        self.register_inner(name, meta, None)
    }

    /// Registers a generated matrix: no tiles are written; readers invoke
    /// the generator on demand. A generated tile is regenerated on every
    /// read and never retained.
    pub fn register_generated(
        &self,
        name: &str,
        meta: MatrixMeta,
        generator: Generator,
    ) -> Result<MatrixHandle> {
        self.register_inner(name, meta, Some(generator))
    }

    fn register_inner(
        &self,
        name: &str,
        meta: MatrixMeta,
        generator: Option<Generator>,
    ) -> Result<MatrixHandle> {
        let mut st = self.state.write();
        if st.matrices.contains_key(name) {
            return Err(DfsError::AlreadyExists(format!("matrix {name}")));
        }
        let handle = MatrixHandle {
            name: name.to_string(),
            meta,
            generator,
        };
        st.matrices
            .insert(name.to_string(), Entry::new(handle.clone()));
        Ok(handle)
    }

    /// Looks up a matrix by name.
    pub fn lookup(&self, name: &str) -> Result<MatrixHandle> {
        self.state
            .read()
            .matrices
            .get(name)
            .map(|e| e.handle.clone())
            .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))
    }

    /// Validates that a tile's dims match slot `(ti, tj)` of a registered
    /// matrix. Task contexts run this when they stage a write, so a
    /// malformed tile fails inside the task, as a direct write would.
    pub fn validate_tile(&self, name: &str, ti: usize, tj: usize, tile: &Tile) -> Result<()> {
        let st = self.state.read();
        let entry = st
            .matrices
            .get(name)
            .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))?;
        let want = entry.handle.meta.tile_dims(ti, tj);
        if (tile.rows(), tile.cols()) != want {
            return Err(DfsError::Codec(format!(
                "tile ({ti},{tj}) of {name} has dims ({}, {}), expected {want:?}",
                tile.rows(),
                tile.cols()
            )));
        }
        Ok(())
    }

    /// Writes one tile of a registered matrix from `writer`'s node.
    pub fn write_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        tile: &Tile,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        self.write_tile_arc(name, ti, tj, Arc::new(tile.clone()), writer)
    }

    /// Writes one tile as a shared handle — the hot path. The `Arc<Tile>`
    /// goes into the DFS as-is, charged at its exact encoded length
    /// ([`encoded_len`]), so receipts and placement match a byte write of
    /// the same tile; phantom tiles are charged at their logical size.
    pub fn write_tile_arc(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        tile: Arc<Tile>,
        writer: Option<NodeId>,
    ) -> Result<IoReceipt> {
        self.validate_tile(name, ti, tj, &tile)?;
        let stored = tile.stored_bytes();
        let wire = encoded_len(&tile);
        let replication = self.dfs.config().replication;
        // Re-execution after task failure overwrites the old output: the
        // DFS replaces whatever file is at the path.
        let receipt = Self::with_tile_path(name, ti, tj, |path| {
            self.dfs
                .write_tile_file(path, tile, wire, writer, replication)
        })?;
        Ok(scale_receipt(receipt, wire, stored))
    }

    /// Reads one tile as a shared handle; generated matrices synthesize the
    /// tile locally on every read (no I/O receipt — generation is CPU,
    /// charged by the caller via [`cumulon_matrix::ops`]) and never retain
    /// it. A stored tile is the `Arc` its DFS file holds, so a read copies
    /// and decodes nothing (unless the spill plane demoted the file, see
    /// [`crate::spill`]).
    ///
    /// `phantom` requests metadata-only tiles for simulated-scale runs.
    pub fn read_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        reader: Option<NodeId>,
        phantom: bool,
    ) -> Result<(Arc<Tile>, IoReceipt)> {
        self.read_or_generate_tile(name, ti, tj, reader, phantom)
            .map(|(tile, receipt)| (tile, receipt.unwrap_or_default()))
    }

    /// [`TileStore::read_tile`], saying from the same registry lookup
    /// whether the tile was read or generated: the receipt is `None` when
    /// the matrix's generator synthesized the tile (no I/O — the caller
    /// charges the generation CPU instead). A Real read of a generated
    /// tile regenerates it and hands back the only reference; a phantom
    /// read shares the entry's phantom of the tile's shape.
    pub fn read_or_generate_tile(
        &self,
        name: &str,
        ti: usize,
        tj: usize,
        reader: Option<NodeId>,
        phantom: bool,
    ) -> Result<(Arc<Tile>, Option<IoReceipt>)> {
        // Shape and generator are copied out under the registry's read
        // lock (no handle or name is cloned); a phantom read of a
        // generated tile shares the entry's phantom of its shape.
        let (meta, generator) = {
            let st = self.state.read();
            let entry = st
                .matrices
                .get(name)
                .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))?;
            if phantom && entry.handle.generator.is_some() {
                // Only an empty grid has no phantom, and no tile to read.
                return entry
                    .phantom(ti, tj)
                    .map(|tile| (tile, None))
                    .ok_or_else(|| DfsError::TileNotFound {
                        matrix: name.to_string(),
                        tile: (ti, tj),
                    });
            }
            (entry.handle.meta, entry.handle.generator)
        };
        if let Some(generator) = generator {
            return Ok((Arc::new(generator.generate(&meta, ti, tj)), None));
        }
        // A stored tile's receipt is rescaled to its logical size.
        match Self::with_tile_path(name, ti, tj, |path| self.dfs.read_tile_file(path, reader)) {
            Ok((tile, r)) => {
                let receipt = scale_receipt(r, r.bytes, tile.stored_bytes());
                Ok((tile, Some(receipt)))
            }
            Err(DfsError::FileNotFound(_)) => Err(DfsError::TileNotFound {
                matrix: name.to_string(),
                tile: (ti, tj),
            }),
            Err(e) => Err(e),
        }
    }

    /// The first tile of a stored matrix, in grid order, with no file.
    fn missing_tile(&self, name: &str, meta: &MatrixMeta) -> Option<(usize, usize)> {
        meta.grid()
            .iter()
            .find(|&(ti, tj)| !Self::with_tile_path(name, ti, tj, |path| self.dfs.exists(path)))
    }

    /// Visits the nodes a read of tile `(ti, tj)` of `name` is fully local
    /// on (`Dfs::home_of`); allocates nothing. A generated matrix's tiles
    /// are synthesized by whichever node reads them, so they have no home:
    /// asking costs one registry lookup.
    pub fn tile_home(&self, name: &str, ti: usize, tj: usize, visit: impl FnMut(NodeId)) {
        let generated = self
            .state
            .read()
            .matrices
            .get(name)
            .is_some_and(|e| e.handle.generator.is_some());
        if !generated {
            Self::with_tile_path(name, ti, tj, |path| self.dfs.home_of(path, visit));
        }
    }

    /// Whether a read of tile `(ti, tj)` of `name` would pay a
    /// synchronous decode-and-readback right now: the tile's file is
    /// demoted to the spill plane. Always `false` without a memory budget,
    /// and for a generated tile, which has no file. The scheduler's
    /// residency oracle.
    pub fn tile_is_spilled(&self, name: &str, ti: usize, tj: usize) -> bool {
        Self::with_tile_path(name, ti, tj, |path| self.dfs.is_spilled(path))
    }

    /// Re-admits tile `(ti, tj)` of `name` from the spill plane ahead of
    /// demand, returning the wire bytes readmitted (`0` when a read would
    /// not have paid a readback anyway: the tile is not spilled, or it
    /// belongs to a generated matrix, which has no file).
    pub fn prefetch_tile(&self, name: &str, ti: usize, tj: usize) -> Result<u64> {
        Self::with_tile_path(name, ti, tj, |path| self.dfs.prefetch_path(path))
    }

    /// The underlying DFS's resident-byte budget, if a spill plane is
    /// installed. Prefetchers use this to self-limit: staging more than a
    /// fraction of the budget ahead of demand evicts the very tiles it
    /// just readmitted (prefetch thrash).
    pub fn memory_budget(&self) -> Option<u64> {
        self.dfs.memory_budget()
    }

    /// Re-persists every tile of a matrix at the given replication factor
    /// (a *checkpoint*: iterative drivers call this every k iterations so
    /// the iterate survives node deaths that would defeat lineage
    /// recovery). Each tile file is read — re-admitting it if spilled —
    /// and its handle rewritten in place at `replication`, charged the
    /// encoding's wire length as any tile write is. Generated matrices
    /// need no checkpoint and return an empty receipt. Every tile is
    /// checked first: a matrix with a tile never written fails with
    /// [`DfsError::TileNotFound`] and is left as it was. Returns the
    /// combined receipt of the reads and the rewrites.
    pub fn checkpoint_matrix(&self, name: &str, replication: usize) -> Result<IoReceipt> {
        let handle = self.lookup(name)?;
        if handle.generator.is_some() {
            return Ok(IoReceipt::default());
        }
        if let Some(tile) = self.missing_tile(name, &handle.meta) {
            return Err(DfsError::TileNotFound {
                matrix: name.to_string(),
                tile,
            });
        }
        let mut total = IoReceipt::default();
        for (ti, tj) in handle.meta.grid().iter() {
            let receipt = Self::with_tile_path(name, ti, tj, |path| {
                let (tile, read) = self.dfs.read_tile_file(path, None)?;
                let write = self
                    .dfs
                    .write_tile_file(path, tile, read.bytes, None, replication)?;
                Ok::<_, DfsError>(read.add(write))
            })?;
            total = total.add(receipt);
        }
        Ok(total)
    }

    /// Whether a matrix is registered (without the error of [`lookup`]).
    ///
    /// [`lookup`]: TileStore::lookup
    pub fn contains(&self, name: &str) -> bool {
        self.state.read().matrices.contains_key(name)
    }

    /// Drops a matrix: namespace entry plus all tile files. A generated
    /// matrix has no files, so only its entry goes.
    pub fn drop_matrix(&self, name: &str) -> Result<()> {
        let handle = self
            .state
            .write()
            .matrices
            .remove(name)
            .ok_or_else(|| DfsError::MatrixNotFound(name.to_string()))?
            .handle;
        if handle.generator.is_some() {
            return Ok(());
        }
        for (ti, tj) in handle.meta.grid().iter() {
            let path = Self::tile_path(name, ti, tj);
            if self.dfs.exists(&path) {
                self.dfs.delete_file(&path)?;
            }
        }
        Ok(())
    }

    /// Uploads a whole in-memory matrix (driver-side convenience used by
    /// tests, examples and workload setup).
    pub fn put_local(&self, name: &str, matrix: &LocalMatrix) -> Result<MatrixHandle> {
        let handle = self.register(name, matrix.meta())?;
        for ((ti, tj), tile) in matrix.iter_tiles() {
            self.write_tile(name, ti, tj, tile, None)?;
        }
        Ok(handle)
    }

    /// Downloads a whole matrix into memory.
    pub fn get_local(&self, name: &str) -> Result<LocalMatrix> {
        let handle = self.lookup(name)?;
        let tiles = handle
            .meta
            .grid()
            .iter()
            .map(|(ti, tj)| {
                self.read_tile(name, ti, tj, None, false)
                    .map(|(t, _)| Arc::unwrap_or_clone(t))
            })
            .collect::<Result<Vec<_>>>()?;
        LocalMatrix::from_tiles(handle.meta, tiles).map_err(DfsError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use cumulon_matrix::gen::Generator;

    fn store() -> TileStore {
        TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 3,
                racks: 1,
            },
        ))
    }

    #[test]
    fn register_write_read_roundtrip() {
        let s = store();
        let meta = MatrixMeta::new(5, 5, 3);
        s.register("A", meta).unwrap();
        let m = LocalMatrix::generate(
            meta,
            &Generator::DenseUniform {
                seed: 1,
                lo: 0.0,
                hi: 1.0,
            },
        );
        for ((ti, tj), tile) in m.iter_tiles() {
            s.write_tile("A", ti, tj, tile, Some(NodeId(0))).unwrap();
        }
        let back = s.get_local("A").unwrap();
        assert_eq!(back.to_dense_vec().unwrap(), m.to_dense_vec().unwrap());
    }

    #[test]
    fn put_get_local_convenience() {
        let s = store();
        let meta = MatrixMeta::new(7, 4, 3);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 9 });
        s.put_local("G", &m).unwrap();
        let back = s.get_local("G").unwrap();
        assert_eq!(back.max_abs_diff(&m).unwrap(), 0.0);
    }

    #[test]
    fn generated_matrix_needs_no_io() {
        let s = store();
        let meta = MatrixMeta::new(6, 6, 4);
        s.register_generated(
            "R",
            meta,
            Generator::DenseUniform {
                seed: 5,
                lo: -1.0,
                hi: 1.0,
            },
        )
        .unwrap();
        let (tile, receipt) = s.read_tile("R", 0, 0, Some(NodeId(1)), false).unwrap();
        assert_eq!((tile.rows(), tile.cols()), (4, 4));
        assert_eq!(receipt, IoReceipt::default());
        // Deterministic across reads.
        let (tile2, _) = s.read_tile("R", 0, 0, Some(NodeId(2)), false).unwrap();
        assert_eq!(tile, tile2);
    }

    #[test]
    fn phantom_reads() {
        let s = store();
        let meta = MatrixMeta::new(100, 100, 50);
        s.register_generated(
            "P",
            meta,
            Generator::SparseUniform {
                seed: 2,
                density: 0.1,
            },
        )
        .unwrap();
        let (tile, _) = s.read_tile("P", 1, 1, None, true).unwrap();
        assert!(tile.is_phantom());
        assert_eq!(tile.nnz(), 250);
    }

    #[test]
    fn generated_phantoms_are_shared_per_tile_shape() {
        let s = store();
        // 3 × 3 tiles with ragged last row and column: four shapes.
        let meta = MatrixMeta::new(25, 23, 10);
        let generator = Generator::SparseUniform {
            seed: 2,
            density: 0.1,
        };
        s.register_generated("P", meta, generator).unwrap();
        let read = |ti, tj| s.read_tile("P", ti, tj, None, true).unwrap().0;
        let edge = |i: usize| if i == 2 { 2 } else { 0 };
        for (ti, tj) in meta.grid().iter() {
            let tile = read(ti, tj);
            assert_eq!(*tile, generator.generate_phantom(&meta, ti, tj));
            assert!(Arc::ptr_eq(&tile, &read(edge(ti), edge(tj))));
        }
        // Real reads still generate real tiles.
        assert!(!s.read_tile("P", 0, 0, None, false).unwrap().0.is_phantom());
        // An empty grid has no tile, phantom or not.
        s.register_generated("E", MatrixMeta::new(0, 20, 10), generator)
            .unwrap();
        assert!(matches!(
            s.read_tile("E", 0, 0, None, true),
            Err(DfsError::TileNotFound { .. })
        ));
    }

    #[test]
    fn wrong_dims_rejected() {
        let s = store();
        s.register("A", MatrixMeta::new(4, 4, 2)).unwrap();
        let bad = Tile::zeros(3, 3);
        assert!(s.write_tile("A", 0, 0, &bad, None).is_err());
    }

    #[test]
    fn missing_matrix_and_tile() {
        let s = store();
        assert!(matches!(s.lookup("nope"), Err(DfsError::MatrixNotFound(_))));
        s.register("A", MatrixMeta::new(4, 4, 2)).unwrap();
        assert!(matches!(
            s.read_tile("A", 0, 0, None, false),
            Err(DfsError::TileNotFound { .. })
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        assert!(s.register("A", MatrixMeta::new(2, 2, 2)).is_err());
    }

    #[test]
    fn overwrite_on_reexecution() {
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        s.write_tile("A", 0, 0, &Tile::zeros(2, 2), None).unwrap();
        let mut t = Tile::zeros(2, 2);
        t.add_assign(&Tile::dense(cumulon_matrix::DenseTile::identity(2)))
            .unwrap();
        s.write_tile("A", 0, 0, &t, None).unwrap();
        let (back, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert_eq!(back.sum(), 2.0);
    }

    #[test]
    fn drop_matrix_frees_storage() {
        let s = store();
        let meta = MatrixMeta::new(4, 4, 2);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 1 });
        s.put_local("A", &m).unwrap();
        assert!(s.dfs().storage_stats().1 > 0);
        s.drop_matrix("A").unwrap();
        assert_eq!(s.dfs().storage_stats().1, 0);
        assert!(s.lookup("A").is_err());
        // Name reusable after drop.
        s.register("A", meta).unwrap();
    }

    #[test]
    fn locality_hint_via_store() {
        let home = |s: &TileStore, name: &str| {
            let mut home = Vec::new();
            s.tile_home(name, 0, 0, |n| home.push(n));
            home
        };
        let s = store();
        s.register("A", MatrixMeta::new(2, 2, 2)).unwrap();
        assert_eq!(home(&s, "A"), [], "not written yet");
        s.write_tile("A", 0, 0, &Tile::zeros(2, 2), Some(NodeId(3)))
            .unwrap();
        let got = home(&s, "A");
        assert_eq!((got.len(), got[0]), (2, NodeId(3)), "writer-local first");
        // An overwrite from another node moves the home with the file.
        s.write_tile("A", 0, 0, &Tile::zeros(2, 2), Some(NodeId(1)))
            .unwrap();
        assert_eq!(home(&s, "A")[0], NodeId(1));
        s.register_generated(
            "G",
            MatrixMeta::new(2, 2, 2),
            Generator::DenseGaussian { seed: 1 },
        )
        .unwrap();
        assert_eq!(home(&s, "G"), [], "generated tiles have no home");
    }

    #[test]
    fn checkpoint_raises_replication() {
        let s = TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 1,
                block_size: 1 << 20,
                seed: 7,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(8, 8, 4);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 4 });
        s.put_local("W", &m).unwrap();
        let receipt = s.checkpoint_matrix("W", 3).unwrap();
        assert!(receipt.bytes > 0);
        // At replication 3, losing two nodes cannot lose the checkpoint.
        s.dfs().kill_node(NodeId(0)).unwrap();
        s.dfs().kill_node(NodeId(1)).unwrap();
        let back = s.get_local("W").unwrap();
        assert_eq!(back.max_abs_diff(&m).unwrap(), 0.0);
        // Generated matrices need no checkpoint.
        s.register_generated("G", meta, Generator::DenseGaussian { seed: 5 })
            .unwrap();
        assert_eq!(s.checkpoint_matrix("G", 3).unwrap(), IoReceipt::default());
        assert!(s.contains("W") && !s.contains("nope"));
    }

    /// A checkpoint of a matrix with a tile never written names the tile
    /// and leaves every tile that is there as it was.
    #[test]
    fn checkpoint_of_an_incomplete_matrix_changes_nothing() {
        let s = store();
        s.register("W", MatrixMeta::new(4, 2, 2)).unwrap();
        s.write_tile("W", 0, 0, &Tile::zeros(2, 2), Some(NodeId(0)))
            .unwrap();
        let (stats, per_node) = (s.dfs().storage_stats(), s.dfs().per_node_bytes());
        match s.checkpoint_matrix("W", 3) {
            Err(DfsError::TileNotFound { matrix, tile }) => {
                assert_eq!((matrix.as_str(), tile), ("W", (1, 0)));
            }
            other => panic!("expected TileNotFound for (1,0), got {other:?}"),
        }
        assert_eq!(s.dfs().storage_stats(), stats);
        assert_eq!(s.dfs().per_node_bytes(), per_node);
    }
}

#[cfg(test)]
mod data_plane_tests {
    use super::*;
    use crate::dfs::{DfsConfig, StorageAccounting};
    use cumulon_matrix::gen::Generator;

    #[test]
    fn handle_reads_share_identity_without_cache() {
        // Stored-tile reads return the same Arc on every read — the DFS
        // holds the handle.
        let s = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 9,
                racks: 1,
            },
        ));
        s.register("A", MatrixMeta::new(4, 4, 4)).unwrap();
        s.write_tile("A", 0, 0, &Tile::zeros(4, 4), Some(NodeId(0)))
            .unwrap();
        let (a, _) = s.read_tile("A", 0, 0, Some(NodeId(1)), false).unwrap();
        let (b, _) = s.read_tile("A", 0, 0, Some(NodeId(0)), false).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// A checkpoint rewrites each tile's own handle at the higher
    /// replication, charging what a rewrite of its encoding would: the
    /// receipt, per-node bytes and accounting below are those the
    /// encode-and-rewrite checkpoint produced for this multi-block matrix
    /// (four 152-byte tiles in 64-byte blocks, replication 1 → 3).
    #[test]
    fn checkpoint_rereplicates_the_handle() {
        let s = TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 1,
                block_size: 64,
                seed: 7,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(8, 8, 4);
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 4 });
        s.register("W", meta).unwrap();
        for ((ti, tj), tile) in m.iter_tiles() {
            s.write_tile("W", ti, tj, tile, Some(NodeId((2 * ti + tj) as u32)))
                .unwrap();
        }
        let read = |ti, tj| s.read_tile("W", ti, tj, None, false).unwrap().0;
        let before: Vec<Arc<Tile>> = meta.grid().iter().map(|(ti, tj)| read(ti, tj)).collect();
        let receipt = s.checkpoint_matrix("W", 3).unwrap();
        assert_eq!(
            receipt,
            IoReceipt {
                bytes: 1216,
                local_bytes: 0,
                remote_bytes: 2432,
            }
        );
        assert_eq!(s.dfs().per_node_bytes(), [392, 608, 392, 432]);
        assert_eq!(
            s.dfs().storage_accounting(),
            StorageAccounting {
                logical_bytes: 608,
                namenode_replica_bytes: 1824,
                datanode_bytes: 1824,
                namenode_replica_count: 36,
                datanode_block_count: 36,
                per_node: vec![(392, 392), (608, 608), (392, 392), (432, 432)],
            }
        );
        // At replication 3, losing two nodes cannot lose the checkpoint,
        // and every tile is still the Arc that was written.
        s.dfs().kill_node(NodeId(0)).unwrap();
        s.dfs().kill_node(NodeId(1)).unwrap();
        for ((ti, tj), old) in meta.grid().iter().zip(&before) {
            assert!(Arc::ptr_eq(&read(ti, tj), old), "tile ({ti},{tj})");
        }
    }
}

#[cfg(test)]
mod spill_plane_tests {
    use super::*;
    use crate::dfs::DfsConfig;
    use cumulon_matrix::gen::Generator;

    fn store_with(seed: u64) -> TileStore {
        TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed,
                racks: 1,
            },
        ))
    }

    fn fill(s: &TileStore, name: &str, meta: MatrixMeta, gen_seed: u64) -> LocalMatrix {
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: gen_seed });
        s.register(name, meta).unwrap();
        for ((ti, tj), tile) in m.iter_tiles() {
            s.write_tile(name, ti, tj, tile, Some(NodeId(ti as u32 % 4)))
                .unwrap();
        }
        m
    }

    /// A budget ~10x smaller than the working set must be
    /// indistinguishable from no budget on every
    /// observable — receipts, values, placement, storage stats — while
    /// actually spilling (nonzero evictions), and storage accounting stays
    /// conserved throughout.
    #[test]
    fn tight_budget_is_observationally_identical_to_unbounded() {
        let meta = MatrixMeta::new(40, 40, 8); // 25 tiles ≈ 13 KB wire
        let unbounded = store_with(123);
        let tight = store_with(123);
        tight
            .set_memory_budget(&SpillConfig::budgeted(1200))
            .unwrap();
        for s in [&unbounded, &tight] {
            s.register("A", meta).unwrap();
        }
        let m = LocalMatrix::generate(meta, &Generator::DenseGaussian { seed: 5 });
        for ((ti, tj), tile) in m.iter_tiles() {
            let ru = unbounded
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            let rt = tight
                .write_tile("A", ti, tj, tile, Some(NodeId(1)))
                .unwrap();
            assert_eq!(ru, rt, "write receipts diverge at ({ti},{tj})");
            assert!(tight.dfs().spill_conserved());
            assert!(tight.dfs().storage_accounting().is_conserved());
        }
        let spilled = tight.dfs().spill_stats().unwrap();
        assert!(spilled.evictions > 0, "budget this tight must spill");
        assert!(spilled.spilled_bytes_total > 0);
        assert!(
            spilled.resident_bytes <= 1200,
            "budget exceeded: {} resident",
            spilled.resident_bytes
        );
        assert_eq!(
            unbounded.dfs().storage_stats(),
            tight.dfs().storage_stats(),
            "residency leaked into storage stats"
        );
        assert_eq!(
            unbounded.dfs().per_node_bytes(),
            tight.dfs().per_node_bytes()
        );
        // Reads re-admit transparently: identical receipts and values, in
        // an access order that forces eviction/readback churn.
        for pass in 0..2 {
            for ((ti, tj), _) in m.iter_tiles() {
                let reader = Some(NodeId((ti + tj + pass) as u32 % 4));
                let (tu, ru) = unbounded.read_tile("A", ti, tj, reader, false).unwrap();
                let (tt, rt) = tight.read_tile("A", ti, tj, reader, false).unwrap();
                assert_eq!(ru, rt, "read receipts diverge at ({ti},{tj})");
                assert_eq!(tu, tt, "tiles diverge at ({ti},{tj})");
            }
        }
        let st = tight.dfs().spill_stats().unwrap();
        assert!(st.readmissions > 0, "reads under pressure must re-admit");
        assert!(tight.dfs().spill_conserved());
        assert!(tight.dfs().storage_accounting().is_conserved());
    }

    /// Re-admission yields a *new* Arc whose contents are bitwise equal —
    /// the documented residency exception to pointer identity. While a
    /// tile stays resident, identity is preserved as before.
    #[test]
    fn readmitted_tiles_are_equal_but_not_pointer_identical() {
        let s = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 9,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(8, 4, 4);
        let m = fill(&s, "A", meta, 11);
        let (before, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        // Budget of one tile: writing/keeping both tiles is impossible, so
        // reading tile 1 then tile 0 forces tile 0 through disk.
        let one_tile = encoded_len(&before);
        s.set_memory_budget(&SpillConfig::budgeted(one_tile + 1))
            .unwrap();
        let (_, _) = s.read_tile("A", 1, 0, None, false).unwrap();
        assert_eq!(
            s.dfs().spill_stats().unwrap().spilled_files,
            1,
            "exactly one of the two tiles fits"
        );
        let (after, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a disk round-trip mints a fresh Arc"
        );
        assert_eq!(*before, *after, "…with bitwise-identical contents");
        // Resident hits keep sharing the new Arc.
        let (again, _) = s.read_tile("A", 0, 0, None, false).unwrap();
        assert!(Arc::ptr_eq(&after, &again));
        assert_eq!(
            m.to_dense_vec().unwrap(),
            s.get_local("A").unwrap().to_dense_vec().unwrap()
        );
    }

    /// LRU discipline: reads refresh recency, so the file demoted is the
    /// least-recently-*used*, not the least-recently-written.
    #[test]
    fn eviction_follows_recency_not_write_order() {
        // Every read goes to the DFS, so recency is driven purely by the
        // accesses below.
        let s = TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 21,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(12, 4, 4); // 3 tiles, one block each
        fill(&s, "A", meta, 3);
        let one = encoded_len(&s.read_tile("A", 0, 0, None, false).unwrap().0);
        // Room for two tiles: installing the budget demotes exactly one.
        s.set_memory_budget(&SpillConfig::budgeted(2 * one))
            .unwrap();
        let base = s.dfs().spill_stats().unwrap();
        assert_eq!(base.spilled_files, 1, "adoption evicted the coldest");
        // Adoption order is namespace order, so tile 0 is on disk and
        // tiles 1 and 2 are resident (2 hotter). Touch tile 1, then
        // re-admit tile 0: the eviction this forces must pick tile 2 —
        // the least-recently-used — even though tile 1 was written first.
        s.read_tile("A", 1, 0, None, false).unwrap();
        s.read_tile("A", 0, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 1, "budget still holds");
        assert_eq!(st.readmissions, base.readmissions + 1);
        // Tile 1 stayed resident: reading it again re-admits nothing…
        s.read_tile("A", 1, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(
            st.readmissions,
            base.readmissions + 1,
            "the recently-touched tile was evicted"
        );
        // …while tile 2 — the cold one — is the file on disk.
        s.read_tile("A", 2, 0, None, false).unwrap();
        assert_eq!(
            s.dfs().spill_stats().unwrap().readmissions,
            base.readmissions + 2
        );
        assert!(s.dfs().spill_conserved());
    }

    /// drop_matrix on a spilled matrix releases every blob reference.
    #[test]
    fn drop_matrix_releases_blob_bytes() {
        let s = store_with(31);
        let meta = MatrixMeta::new(40, 40, 8);
        fill(&s, "A", meta, 17);
        s.set_memory_budget(&SpillConfig::budgeted(1)).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 25, "budget of 1 byte spills everything");
        assert_eq!(st.resident_bytes, 0);
        s.drop_matrix("A").unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.spilled_files, 0);
        assert_eq!(st.blob.live_entries, 0);
        assert!(s.dfs().storage_accounting().is_conserved());
    }

    /// Removing the budget re-admits everything; no data is stranded in
    /// the segment files the plane deletes on drop.
    #[test]
    fn removing_the_budget_readmits_all_files() {
        let s = store_with(41);
        let meta = MatrixMeta::new(16, 16, 8);
        let m = fill(&s, "A", meta, 23);
        s.set_memory_budget(&SpillConfig::budgeted(100)).unwrap();
        assert!(s.dfs().spill_stats().unwrap().spilled_files > 0);
        s.set_memory_budget(&SpillConfig::default()).unwrap();
        assert!(s.dfs().spill_stats().is_none(), "plane removed");
        assert_eq!(
            m.to_dense_vec().unwrap(),
            s.get_local("A").unwrap().to_dense_vec().unwrap()
        );
    }

    /// The uncompressed spill path is the cross-checked reference: same
    /// values, same receipts, honest ratio of 1.
    #[test]
    fn uncompressed_path_is_reference_equivalent() {
        let meta = MatrixMeta::new(16, 16, 8);
        let compressed = store_with(55);
        let raw = store_with(55);
        compressed
            .set_memory_budget(&SpillConfig {
                budget_bytes: 600,
                dir: None,
                compress: true,
            })
            .unwrap();
        raw.set_memory_budget(&SpillConfig {
            budget_bytes: 600,
            dir: None,
            compress: false,
        })
        .unwrap();
        let mc = fill(&compressed, "A", meta, 29);
        let mr = fill(&raw, "A", meta, 29);
        assert_eq!(mc.to_dense_vec().unwrap(), mr.to_dense_vec().unwrap());
        for ((ti, tj), _) in mc.iter_tiles() {
            let (tc, rc) = compressed.read_tile("A", ti, tj, None, false).unwrap();
            let (tr, rr) = raw.read_tile("A", ti, tj, None, false).unwrap();
            assert_eq!(rc, rr, "codec choice leaked into receipts");
            assert_eq!(tc, tr, "codec choice changed values");
        }
        let sr = raw.dfs().spill_stats().unwrap();
        assert!(sr.spilled_bytes_total > 0);
        assert_eq!(
            sr.blob.compression_ratio(),
            1.0,
            "raw path stores wire bytes verbatim"
        );
        // Gaussian tiles are honest work for the codec; zero tiles would
        // compress, but either way values and receipts match the raw path.
        let sc = compressed.dfs().spill_stats().unwrap();
        assert!(sc.blob.compression_ratio() >= 1.0);
    }

    /// `tiles` one-tile files of `A` behind a one-tile budget, so every
    /// read of a non-resident tile re-admits it and demotes the tile read
    /// before. Tile `i` is written from, and at `replication` 1 lives only
    /// on, node `i % 4`.
    fn one_tile_budget(tiles: usize, replication: usize) -> (TileStore, LocalMatrix) {
        let s = TileStore::new(Dfs::new(
            4,
            DfsConfig {
                replication,
                block_size: 1 << 20,
                seed: 77,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(8 * tiles, 8, 8);
        let one = encoded_len(&Tile::zeros(8, 8));
        s.set_memory_budget(&SpillConfig::budgeted(one + 1))
            .unwrap();
        let m = fill(&s, "A", meta, 41);
        (s, m)
    }

    fn read_all(s: &TileStore, m: &LocalMatrix) {
        for ((ti, tj), want) in m.iter_tiles() {
            let (got, _) = s.read_tile("A", ti, tj, None, false).unwrap();
            assert_eq!(*got, *want, "tile ({ti},{tj})");
            assert!(s.dfs().spill_conserved());
        }
    }

    /// Re-evicting a tile that came back from disk and was not written
    /// since appends nothing: the entry it was read from is still live
    /// and still the file's.
    #[test]
    fn clean_reevictions_move_no_bytes() {
        let (s, m) = one_tile_budget(6, 2);
        // First pass: the last tile written is demoted for the first
        // time; every other demotion is already clean.
        read_all(&s, &m);
        let first = s.dfs().spill_stats().unwrap();
        assert_eq!(first.blob.live_entries, 6, "every tile has been on disk");
        assert!(first.clean_evictions > 0);
        read_all(&s, &m);
        let second = s.dfs().spill_stats().unwrap();
        assert_eq!(second.readmissions, first.readmissions + 6);
        assert_eq!(second.evictions, first.evictions + 6);
        assert_eq!(second.clean_evictions, first.clean_evictions + 6);
        let one = encoded_len(m.tile(0, 0).unwrap());
        assert_eq!(
            second.spilled_bytes_total,
            first.spilled_bytes_total + 6 * one,
            "a clean demotion counts its logical bytes like any other"
        );
        assert_eq!(second.blob.bytes_written, first.blob.bytes_written);
        assert_eq!(second.blob.live_entries, 6);
        assert_eq!(second.blob.dedup_hits, 0, "put was never asked");
        assert_eq!((second.resident_files, second.spilled_files), (1, 5));
        // One tile is resident and backed; deleting everything must give
        // back its reference along with the five spilled ones.
        s.drop_matrix("A").unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.blob.live_entries, 0, "leaked blob reference");
        assert!(s.dfs().spill_conserved());
    }

    /// A backing is given up where the bytes stop being the file's.
    #[test]
    fn overwrite_and_delete_release_the_backing() {
        let (s, m) = one_tile_budget(3, 2);
        read_all(&s, &m);
        // Tile 2 was read last: resident, backed by its entry.
        assert_eq!(s.dfs().spill_stats().unwrap().blob.live_entries, 3);
        let fresh = Tile::dense(cumulon_matrix::gen::dense_uniform_tile(
            9, 0, 0, 8, 8, -1.0, 1.0,
        ));
        s.write_tile("A", 2, 0, &fresh, Some(NodeId(2))).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.blob.live_entries, 2, "the overwritten bytes are dead");
        assert!(s.dfs().spill_conserved());
        // Its next demotion is dirty: the new bytes go to disk, and come
        // back as written.
        s.read_tile("A", 0, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.blob.live_entries, 3);
        assert_eq!(*s.read_tile("A", 2, 0, None, false).unwrap().0, fresh);
        assert!(s.dfs().spill_conserved());
        // Delete while backed (tile 2 again, just re-admitted).
        s.dfs()
            .delete_file(&TileStore::tile_path("A", 2, 0))
            .unwrap();
        assert_eq!(s.dfs().spill_stats().unwrap().blob.live_entries, 2);
        assert!(s.dfs().spill_conserved());
        assert!(s.dfs().storage_accounting().is_conserved());
    }

    /// A backed file whose every replica died with its node has no
    /// resident replica any more when it goes cold: the demotion must give
    /// the backing up — not leak it, and not swap a stale `Spilled`
    /// reference over whatever holds the path now.
    #[test]
    fn losing_every_replica_of_a_backed_file_releases_the_backing() {
        let (s, m) = one_tile_budget(3, 1);
        read_all(&s, &m);
        s.read_tile("A", 0, 0, None, false).unwrap();
        // Tile 0 (node 0's only copy) is resident and backed.
        assert_eq!(s.dfs().spill_stats().unwrap().blob.live_entries, 3);
        s.dfs().kill_node(NodeId(0)).unwrap();
        assert!(s.dfs().spill_conserved());
        // Re-admitting tile 1 pushes tile 0 out of the LRU.
        s.read_tile("A", 1, 0, None, false).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.blob.live_entries, 2, "tile 0's backing was given up");
        assert_eq!((st.resident_files, st.spilled_files), (1, 1));
        assert!(s.dfs().spill_conserved());
        assert!(s.dfs().storage_accounting().is_conserved());
        assert!(matches!(
            s.read_tile("A", 0, 0, None, false),
            Err(DfsError::BlockLost { .. })
        ));
        // Lineage recovery rewrites the tile; it is an ordinary dirty
        // file from here on.
        let t0 = m.tile(0, 0).unwrap();
        s.write_tile("A", 0, 0, t0, Some(NodeId(1))).unwrap();
        read_all(&s, &m);
        assert_eq!(s.dfs().spill_stats().unwrap().blob.live_entries, 3);
    }

    /// Checkpointed files are tile files like any other: under a memory
    /// budget the spill plane tracks every one of them, keeps them within
    /// the budget, and they read back as written.
    #[test]
    fn checkpointed_files_stay_under_the_budget() {
        let (s, m) = one_tile_budget(4, 2);
        read_all(&s, &m);
        s.checkpoint_matrix("A", 3).unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.resident_files + st.spilled_files, 4);
        assert!(
            st.resident_bytes <= s.memory_budget().unwrap(),
            "{} B resident over budget",
            st.resident_bytes
        );
        assert!(s.dfs().spill_conserved());
        assert!(s.dfs().storage_accounting().is_conserved());
        read_all(&s, &m);
    }

    /// Replacing or removing a plane that holds backed files strands
    /// nothing: the files are resident, and the old backings go with the
    /// old blob store.
    #[test]
    fn replacing_the_plane_drops_backings_with_it() {
        let (s, m) = one_tile_budget(4, 2);
        read_all(&s, &m);
        let old = s.dfs().spill_stats().unwrap();
        assert_eq!((old.resident_files, old.blob.live_entries), (1, 4));
        let one = encoded_len(m.tile(0, 0).unwrap());
        s.set_memory_budget(&SpillConfig::budgeted(2 * one))
            .unwrap();
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!((st.resident_files, st.spilled_files), (2, 2));
        assert_eq!(st.blob.live_entries, 2, "a fresh store, nothing backed");
        assert_eq!(st.clean_evictions, 0);
        assert!(s.dfs().spill_conserved());
        read_all(&s, &m);
        assert!(s.dfs().spill_stats().unwrap().blob.live_entries > 2);
        s.set_memory_budget(&SpillConfig::default()).unwrap();
        assert!(s.dfs().spill_stats().is_none());
        assert!(s.dfs().spill_conserved());
        for ((ti, tj), want) in m.iter_tiles() {
            assert_eq!(*s.read_tile("A", ti, tj, None, false).unwrap().0, *want);
        }
    }

    /// Phantom tiles are metadata-only and must never reach the blob
    /// store, no matter how tight the budget.
    #[test]
    fn phantom_tiles_never_spill() {
        let s = store_with(61);
        s.set_memory_budget(&SpillConfig::budgeted(1)).unwrap();
        let meta = MatrixMeta::new(1000, 1000, 500);
        s.register("P", meta).unwrap();
        for ti in 0..2 {
            for tj in 0..2 {
                s.write_tile("P", ti, tj, &Tile::phantom_dense(500, 500), Some(NodeId(0)))
                    .unwrap();
            }
        }
        let st = s.dfs().spill_stats().unwrap();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.spilled_files, 0);
        let (t, _) = s.read_tile("P", 1, 1, None, true).unwrap();
        assert!(t.is_phantom());
    }

    /// A budgeted store keeps no generated tile: a Real read hands back
    /// the only reference to a freshly generated tile, and neither the
    /// DFS nor the spill plane gains a byte.
    #[test]
    fn budgeted_store_keeps_no_generated_tile() {
        let s = store_with(71);
        s.set_memory_budget(&SpillConfig::budgeted(1 << 20))
            .unwrap();
        let meta = MatrixMeta::new(16, 16, 8);
        let generator = Generator::DenseGaussian { seed: 3 };
        s.register_generated("G", meta, generator).unwrap();
        let (stats, spill) = (s.dfs().storage_stats(), s.dfs().spill_stats());
        for _ in 0..2 {
            let (tile, receipt) = s.read_or_generate_tile("G", 1, 0, None, false).unwrap();
            assert_eq!(Arc::strong_count(&tile), 1, "the store kept a reference");
            assert_eq!(*tile, generator.generate(&meta, 1, 0));
            assert_eq!(receipt, None);
        }
        assert_eq!(s.dfs().storage_stats(), stats);
        assert_eq!(s.dfs().spill_stats(), spill);
        s.drop_matrix("G").unwrap();
        assert_eq!(s.dfs().storage_stats(), stats);
    }
}

#[cfg(test)]
mod phantom_receipt_tests {
    use super::*;
    use crate::dfs::DfsConfig;

    #[test]
    fn phantom_write_and_read_charge_logical_bytes() {
        let s = TileStore::new(Dfs::new(
            2,
            DfsConfig {
                replication: 2,
                block_size: 1 << 20,
                seed: 1,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(1000, 1000, 1000);
        s.register("P", meta).unwrap();
        let tile = Tile::phantom_dense(1000, 1000);
        let w = s.write_tile("P", 0, 0, &tile, Some(NodeId(0))).unwrap();
        let logical = tile.stored_bytes();
        assert_eq!(w.bytes, logical, "write receipt must be logical size");
        assert_eq!(
            w.local_bytes + w.remote_bytes,
            2 * logical,
            "both replicas charged"
        );
        let (_, r) = s.read_tile("P", 0, 0, Some(NodeId(0)), false).unwrap();
        assert_eq!(r.bytes, logical);
        assert_eq!(r.local_bytes, logical, "writer-local replica read locally");
    }

    #[test]
    fn dense_receipts_unchanged_in_spirit() {
        let s = TileStore::new(Dfs::new(
            1,
            DfsConfig {
                replication: 1,
                block_size: 1 << 20,
                seed: 1,
                racks: 1,
            },
        ));
        let meta = MatrixMeta::new(10, 10, 10);
        s.register("D", meta).unwrap();
        let tile = Tile::zeros(10, 10);
        let w = s.write_tile("D", 0, 0, &tile, Some(NodeId(0))).unwrap();
        assert_eq!(w.bytes, tile.stored_bytes());
    }
}
