//! Matrix-level metadata: logical dimensions, tiling, and the tile grid.

use serde::{Deserialize, Serialize};

/// Metadata describing a tiled matrix: logical dimensions plus the tile
/// side length. The element data itself lives in the DFS (or in a
/// [`crate::LocalMatrix`] for in-process use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixMeta {
    /// Logical row count.
    pub rows: usize,
    /// Logical column count.
    pub cols: usize,
    /// Tile side length (tiles are square except at the trailing edges).
    pub tile_size: usize,
}

impl MatrixMeta {
    /// Creates metadata; `tile_size` must be non-zero.
    pub fn new(rows: usize, cols: usize, tile_size: usize) -> Self {
        assert!(tile_size > 0, "tile_size must be positive");
        MatrixMeta {
            rows,
            cols,
            tile_size,
        }
    }

    /// The tile grid for this matrix.
    pub fn grid(&self) -> TileGrid {
        TileGrid {
            tile_rows: self.rows.div_ceil(self.tile_size),
            tile_cols: self.cols.div_ceil(self.tile_size),
        }
    }

    /// Dimensions of tile `(ti, tj)`, accounting for ragged edges.
    pub fn tile_dims(&self, ti: usize, tj: usize) -> (usize, usize) {
        let g = self.grid();
        debug_assert!(
            ti < g.tile_rows && tj < g.tile_cols,
            "tile index out of grid"
        );
        let r = if ti + 1 == g.tile_rows && !self.rows.is_multiple_of(self.tile_size) {
            self.rows % self.tile_size
        } else {
            self.tile_size
        };
        let c = if tj + 1 == g.tile_cols && !self.cols.is_multiple_of(self.tile_size) {
            self.cols % self.tile_size
        } else {
            self.tile_size
        };
        (r, c)
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        let g = self.grid();
        g.tile_rows * g.tile_cols
    }

    /// Total number of elements.
    pub(crate) fn elements(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Metadata of the transpose.
    pub fn transposed(&self) -> MatrixMeta {
        MatrixMeta {
            rows: self.cols,
            cols: self.rows,
            tile_size: self.tile_size,
        }
    }

    /// Expected stored size in bytes at a given density (8 bytes/element
    /// dense, 12 bytes/entry + row pointers sparse, whichever is smaller —
    /// matching [`crate::Tile::stored_bytes`] at tile granularity).
    pub fn stored_bytes_at_density(&self, density: f64) -> u64 {
        let nnz = (self.elements() as f64 * density.clamp(0.0, 1.0)) as u64;
        let dense = self.elements() * 8;
        let sparse = 4 * (self.rows as u64 + self.grid().tile_rows as u64) + 12 * nnz;
        let header = 24 * self.tile_count() as u64;
        header + dense.min(sparse)
    }
}

/// Extent of a matrix' tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileGrid {
    /// Number of tile rows.
    pub tile_rows: usize,
    /// Number of tile columns.
    pub tile_cols: usize,
}

impl TileGrid {
    /// Iterates all `(ti, tj)` coordinates in row-major order.
    pub fn iter(self) -> impl Iterator<Item = (usize, usize)> {
        let cols = self.tile_cols;
        (0..self.tile_rows).flat_map(move |ti| (0..cols).map(move |tj| (ti, tj)))
    }

    /// Total tiles in the grid.
    pub fn count(&self) -> usize {
        self.tile_rows * self.tile_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_exact_division() {
        let m = MatrixMeta::new(4000, 2000, 1000);
        let g = m.grid();
        assert_eq!((g.tile_rows, g.tile_cols), (4, 2));
        assert_eq!(m.tile_count(), 8);
        assert_eq!(m.tile_dims(3, 1), (1000, 1000));
    }

    #[test]
    fn grid_ragged_edges() {
        let m = MatrixMeta::new(2500, 1700, 1000);
        let g = m.grid();
        assert_eq!((g.tile_rows, g.tile_cols), (3, 2));
        assert_eq!(m.tile_dims(0, 0), (1000, 1000));
        assert_eq!(m.tile_dims(2, 0), (500, 1000));
        assert_eq!(m.tile_dims(0, 1), (1000, 700));
        assert_eq!(m.tile_dims(2, 1), (500, 700));
    }

    #[test]
    fn tiny_matrix_single_tile() {
        let m = MatrixMeta::new(3, 7, 1000);
        assert_eq!(m.tile_count(), 1);
        assert_eq!(m.tile_dims(0, 0), (3, 7));
    }

    #[test]
    fn transposed_meta() {
        let m = MatrixMeta::new(10, 20, 4);
        let t = m.transposed();
        assert_eq!((t.rows, t.cols), (20, 10));
        assert_eq!(t.tile_size, 4);
    }

    #[test]
    fn grid_iter_covers_all() {
        let m = MatrixMeta::new(25, 25, 10);
        let coords: Vec<_> = m.grid().iter().collect();
        assert_eq!(coords.len(), 9);
        assert_eq!(coords[0], (0, 0));
        assert_eq!(*coords.last().unwrap(), (2, 2));
    }

    #[test]
    fn stored_bytes_dense_vs_sparse() {
        let m = MatrixMeta::new(1000, 1000, 1000);
        let dense = m.stored_bytes_at_density(1.0);
        let sparse = m.stored_bytes_at_density(0.01);
        assert!(
            sparse < dense / 10,
            "1% density should be far smaller: {sparse} vs {dense}"
        );
    }

    #[test]
    #[should_panic(expected = "tile_size must be positive")]
    fn zero_tile_size_panics() {
        MatrixMeta::new(1, 1, 0);
    }
}
