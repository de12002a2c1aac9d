//! The unified [`Tile`] type: dense, sparse, or phantom (metadata-only).
//!
//! The execution engine is written entirely against `Tile`, so the same
//! physical operators run in *real* mode (materialised data, verifiable
//! results) and *phantom* mode (paper-scale experiments where only shapes,
//! nnz estimates and byte/flop counts flow). Every kernel here propagates
//! phantom-ness: combining a phantom tile with anything yields a phantom
//! tile whose nnz estimate follows the standard independence assumptions
//! used by the cost models.

use crate::dense::DenseTile;
use crate::error::{MatrixError, Result};
use crate::pack::PackScratch;
use crate::sparse::CsrTile;

/// Storage payload of a [`Tile`].
#[derive(Debug, Clone, PartialEq)]
pub enum TileData {
    /// Materialised dense data.
    Dense(DenseTile),
    /// Materialised sparse data.
    Sparse(CsrTile),
    /// No data: only an estimated number of non-zeros is tracked.
    Phantom {
        /// Estimated non-zero count for cost accounting.
        nnz: u64,
    },
}

/// A tile of a distributed matrix: dimensions plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    rows: usize,
    cols: usize,
    data: TileData,
}

impl Tile {
    /// Wraps a dense tile.
    pub fn dense(d: DenseTile) -> Self {
        Tile {
            rows: d.rows(),
            cols: d.cols(),
            data: TileData::Dense(d),
        }
    }

    /// Wraps a sparse tile.
    pub fn sparse(s: CsrTile) -> Self {
        Tile {
            rows: s.rows(),
            cols: s.cols(),
            data: TileData::Sparse(s),
        }
    }

    /// Creates a metadata-only tile with an nnz estimate.
    pub fn phantom(rows: usize, cols: usize, nnz: u64) -> Self {
        let cap = (rows as u64).saturating_mul(cols as u64);
        Tile {
            rows,
            cols,
            data: TileData::Phantom { nnz: nnz.min(cap) },
        }
    }

    /// Creates a fully-dense phantom tile.
    pub fn phantom_dense(rows: usize, cols: usize) -> Self {
        Tile::phantom(rows, cols, (rows * cols) as u64)
    }

    /// A materialised dense zero tile.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tile::dense(DenseTile::zeros(rows, cols))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Payload reference.
    #[inline]
    pub fn payload(&self) -> &TileData {
        &self.data
    }

    /// True if this tile carries no materialised data.
    pub fn is_phantom(&self) -> bool {
        matches!(self.data, TileData::Phantom { .. })
    }

    /// True if this tile is stored sparse.
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.data, TileData::Sparse(_))
    }

    /// Exact nnz for materialised tiles, the estimate for phantom tiles.
    pub fn nnz(&self) -> u64 {
        match &self.data {
            TileData::Dense(d) => d.nnz(),
            TileData::Sparse(s) => s.nnz(),
            TileData::Phantom { nnz } => *nnz,
        }
    }

    /// Density in `[0, 1]` (nnz over capacity).
    pub(crate) fn density(&self) -> f64 {
        let cap = (self.rows * self.cols) as f64;
        if cap == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cap
        }
    }

    /// Size of this tile's serialized form in bytes (used by the I/O cost
    /// model and the DFS). Mirrors [`crate::serialize`]: dense tiles store
    /// every element; sparse tiles store 12 bytes per entry plus row
    /// pointers; phantom tiles are costed as if stored in the cheaper of the
    /// two layouts, which is what a real system's format chooser would do.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes_with_rows(self.rows)
    }

    /// [`stored_bytes`](Self::stored_bytes) of [`transpose`](Self::transpose)'s
    /// result, without building it: transposing keeps the payload kind,
    /// the element count and the nnz, and only the row count (which sizes
    /// a sparse layout's row pointers) changes.
    pub(crate) fn transposed_stored_bytes(&self) -> u64 {
        self.stored_bytes_with_rows(self.cols)
    }

    fn stored_bytes_with_rows(&self, rows: usize) -> u64 {
        const HEADER: u64 = 24;
        match &self.data {
            TileData::Dense(_) => HEADER + (self.rows * self.cols * 8) as u64,
            TileData::Sparse(s) => HEADER + 4 * (rows as u64 + 1) + 12 * s.nnz(),
            TileData::Phantom { nnz } => {
                let dense = (self.rows * self.cols * 8) as u64;
                let sparse = 4 * (rows as u64 + 1) + 12 * nnz;
                HEADER + dense.min(sparse)
            }
        }
    }

    /// Borrows the dense payload, failing on sparse/phantom.
    #[cfg(test)]
    pub(crate) fn as_dense(&self) -> Result<&DenseTile> {
        match &self.data {
            TileData::Dense(d) => Ok(d),
            TileData::Sparse(_) => Err(MatrixError::PhantomData {
                op: "as_dense(sparse)",
            }),
            TileData::Phantom { .. } => Err(MatrixError::PhantomData { op: "as_dense" }),
        }
    }

    /// Materialises as a dense tile (converts sparse; fails on phantom).
    pub fn to_dense(&self) -> Result<DenseTile> {
        match &self.data {
            TileData::Dense(d) => Ok(d.clone()),
            TileData::Sparse(s) => Ok(s.to_dense()),
            TileData::Phantom { .. } => Err(MatrixError::PhantomData { op: "to_dense" }),
        }
    }

    fn check_mul_shapes(&self, other: &Tile) -> Result<()> {
        if self.cols != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "tile_mul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(())
    }

    fn check_same_shape(&self, op: &'static str, other: &Tile) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(())
    }

    /// Estimated nnz of a product tile under the independence assumption:
    /// for each of the `l` shared positions, an output cell survives with
    /// probability `1 - (1 - da*db)^l`.
    fn mul_nnz_estimate(&self, other: &Tile) -> u64 {
        let l = self.cols.max(1) as f64;
        let da = self.density();
        let db = other.density();
        let p_cell = 1.0 - (1.0 - da * db).powf(l);
        let cap = (self.rows as u64).saturating_mul(other.cols as u64);
        ((cap as f64) * p_cell).round().min(cap as f64) as u64
    }

    /// Tile product `self × other`, dispatching on representations.
    /// Any phantom operand yields a phantom result.
    pub fn mul(&self, other: &Tile) -> Result<Tile> {
        self.mul_in(other, &mut PackScratch::default())
    }

    /// [`mul`](Self::mul) with the dense kernel packing into the caller's
    /// scratch: a task multiplying many tiles passes one scratch to all of
    /// them.
    pub fn mul_in(&self, other: &Tile, scratch: &mut PackScratch) -> Result<Tile> {
        self.check_mul_shapes(other)?;
        use TileData::*;
        let out = match (&self.data, &other.data) {
            (Phantom { .. }, _) | (_, Phantom { .. }) => {
                Tile::phantom(self.rows, other.cols, self.mul_nnz_estimate(other))
            }
            (Dense(a), Dense(b)) => Tile::dense(DenseTile::matmul_in(a, b, scratch)?),
            (Sparse(a), Dense(b)) => {
                let mut c = DenseTile::zeros(self.rows, other.cols);
                a.spmm_acc(&mut c, b)?;
                Tile::dense(c)
            }
            (Dense(a), Sparse(b)) => {
                let mut c = DenseTile::zeros(self.rows, other.cols);
                b.gemm_ds_acc(&mut c, a)?;
                Tile::dense(c)
            }
            (Sparse(a), Sparse(b)) => Tile::sparse(a.spgemm(b)?),
        };
        Ok(out)
    }

    /// `selfᵀ × other`, bitwise equal to `self.transpose().mul(other)`.
    ///
    /// When both tiles are dense and the product takes the packed kernel,
    /// `self` is packed as stored ([`DenseTile::gemm_acc_t_packed_in`]) and
    /// the transpose is never built; any other combination materialises
    /// the transpose and multiplies it.
    pub fn mul_transposed_in(&self, other: &Tile, scratch: &mut PackScratch) -> Result<Tile> {
        match (&self.data, &other.data) {
            (TileData::Dense(at), TileData::Dense(b))
                if self.rows == other.rows
                    && DenseTile::packs(self.cols, self.rows, other.cols) =>
            {
                let mut c = DenseTile::zeros(self.cols, other.cols);
                DenseTile::gemm_acc_t_packed_in(&mut c, at, b, scratch)?;
                Ok(Tile::dense(c))
            }
            _ => self.transpose().mul_in(other, scratch),
        }
    }

    /// `self += other` (for accumulating partial products). Sparse operands
    /// are promoted to dense when mixed; phantom taints the accumulator. The
    /// nnz estimate for phantom sums assumes independent supports.
    pub fn add_assign(&mut self, other: &Tile) -> Result<()> {
        self.check_same_shape("tile_add", other)?;
        use TileData::*;
        let cap = (self.rows * self.cols) as u64;
        match (&mut self.data, &other.data) {
            (Phantom { nnz }, _) => {
                let union = union_nnz(*nnz, other.nnz(), cap);
                *nnz = union;
            }
            (me, Phantom { nnz }) => {
                let union = union_nnz(
                    match me {
                        Dense(d) => d.nnz(),
                        Sparse(s) => s.nnz(),
                        Phantom { nnz } => *nnz,
                    },
                    *nnz,
                    cap,
                );
                self.data = Phantom { nnz: union };
            }
            (Dense(a), Dense(b)) => a.add_assign(b)?,
            (Dense(a), Sparse(b)) => {
                for (i, j, v) in b.iter() {
                    a.set(i, j, a.get(i, j) + v);
                }
            }
            (Sparse(a), Sparse(b)) => {
                let sum = a.add(b)?;
                self.data = Sparse(sum);
            }
            (Sparse(a), Dense(b)) => {
                let mut d = a.to_dense();
                d.add_assign(b)?;
                self.data = Dense(d);
            }
        }
        Ok(())
    }

    /// Element-wise binary op. `kind` selects add/sub/mul/div.
    pub fn elementwise(&self, other: &Tile, kind: ElemOp) -> Result<Tile> {
        self.check_same_shape(kind.name(), other)?;
        use TileData::*;
        let cap = (self.rows * self.cols) as u64;
        let out = match (&self.data, &other.data) {
            (Phantom { .. }, _) | (_, Phantom { .. }) => {
                let nnz = match kind {
                    ElemOp::Add | ElemOp::Sub => union_nnz(self.nnz(), other.nnz(), cap),
                    // Product support is the intersection; with independence
                    // that's the product of densities.
                    ElemOp::Mul => ((self.density() * other.density()) * cap as f64).round() as u64,
                    // Division keeps the numerator's support.
                    ElemOp::Div => self.nnz(),
                };
                Tile::phantom(self.rows, self.cols, nnz)
            }
            (Sparse(a), Dense(b)) if kind == ElemOp::Mul => Tile::sparse(a.elem_mul_dense(b)?),
            (Sparse(a), Dense(b)) if kind == ElemOp::Div => Tile::sparse(a.elem_div_dense(b)?),
            (Sparse(a), Sparse(b)) if kind == ElemOp::Add => Tile::sparse(a.add(b)?),
            (Sparse(a), Sparse(b)) if kind == ElemOp::Sub => {
                let mut nb = b.clone();
                nb.scale(-1.0);
                Tile::sparse(a.add(&nb)?)
            }
            _ => {
                // General path: materialise both sides dense.
                let mut a = self.to_dense()?;
                let b = other.to_dense()?;
                match kind {
                    ElemOp::Add => a.add_assign(&b)?,
                    ElemOp::Sub => a.sub_assign(&b)?,
                    ElemOp::Mul => a.mul_assign_elem(&b)?,
                    ElemOp::Div => a.div_assign_elem(&b)?,
                }
                Tile::dense(a)
            }
        };
        Ok(out)
    }

    /// Transposes the tile.
    pub fn transpose(&self) -> Tile {
        match &self.data {
            TileData::Dense(d) => Tile::dense(d.transpose()),
            TileData::Sparse(s) => Tile::sparse(s.transpose()),
            TileData::Phantom { nnz } => Tile::phantom(self.cols, self.rows, *nnz),
        }
    }

    /// Scales the tile by `s` (no-op on phantom payloads except s == 0).
    pub fn scale(&mut self, s: f64) {
        match &mut self.data {
            TileData::Dense(d) => d.scale(s),
            TileData::Sparse(sp) => sp.scale(s),
            TileData::Phantom { nnz } => {
                if s == 0.0 {
                    *nnz = 0;
                }
            }
        }
    }

    /// Applies a scalar function to every element. Phantom tiles assume the
    /// function preserves zeros (true for the workloads' `abs`, `sqrt`,
    /// `x*x` style maps) and keep their nnz estimate.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tile {
        match &self.data {
            TileData::Dense(d) => {
                let mut out = d.clone();
                out.map_inplace(&f);
                Tile::dense(out)
            }
            TileData::Sparse(s) => {
                let triples = s.iter().map(|(i, j, v)| (i, j, f(v))).collect();
                Tile::sparse(CsrTile::from_triples(s.rows(), s.cols(), triples))
            }
            TileData::Phantom { nnz } => Tile::phantom(self.rows, self.cols, *nnz),
        }
    }

    /// Sum of all elements (0 for phantom tiles — aggregates over phantom
    /// data are only used for cost accounting, never for results).
    pub fn sum(&self) -> f64 {
        match &self.data {
            TileData::Dense(d) => d.sum(),
            TileData::Sparse(s) => s.sum(),
            TileData::Phantom { .. } => 0.0,
        }
    }

    /// Squared Frobenius norm (0 for phantom tiles).
    pub(crate) fn frob_sq(&self) -> f64 {
        match &self.data {
            TileData::Dense(d) => d.frob_sq(),
            TileData::Sparse(s) => s.frob_sq(),
            TileData::Phantom { .. } => 0.0,
        }
    }
}

/// Lets APIs take `impl Into<Arc<Tile>>` so callers can hand over an owned
/// `Tile` or a shared `Arc<Tile>` without copying, while `&Tile` call sites
/// keep working (at the cost of one clone, as before).
impl From<&Tile> for std::sync::Arc<Tile> {
    fn from(t: &Tile) -> Self {
        std::sync::Arc::new(t.clone())
    }
}

/// Estimated nnz of the union of two independent supports, capped.
fn union_nnz(a: u64, b: u64, cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let da = a as f64 / cap as f64;
    let db = b as f64 / cap as f64;
    (((da + db - da * db) * cap as f64).round() as u64).min(cap)
}

/// Element-wise binary operators supported by [`Tile::elementwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a ⊙ b` (Hadamard)
    Mul,
    /// `a ⊘ b` (zero where `b` is zero)
    Div,
}

impl ElemOp {
    /// Stable operator name for errors/plans.
    pub fn name(self) -> &'static str {
        match self {
            ElemOp::Add => "add",
            ElemOp::Sub => "sub",
            ElemOp::Mul => "elem_mul",
            ElemOp::Div => "elem_div",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rows: usize, cols: usize, v: Vec<f64>) -> Tile {
        Tile::dense(DenseTile::from_vec(rows, cols, v))
    }

    #[test]
    fn dense_mul() {
        let a = d(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = d(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c.as_dense().unwrap().data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn mixed_mul_matches_dense() {
        let ad = DenseTile::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let bd = DenseTile::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let expect = DenseTile::matmul(&ad, &bd).unwrap();

        let a_s = Tile::sparse(CsrTile::from_dense(&ad));
        let b_s = Tile::sparse(CsrTile::from_dense(&bd));
        let a_d = Tile::dense(ad);
        let b_d = Tile::dense(bd);

        for (a, b) in [(&a_s, &b_d), (&a_d, &b_s), (&a_s, &b_s)] {
            let c = a.mul(b).unwrap();
            assert_eq!(c.to_dense().unwrap(), expect, "repr combination mismatch");
        }
    }

    #[test]
    fn phantom_mul_propagates() {
        let a = Tile::phantom_dense(10, 20);
        let b = Tile::phantom_dense(20, 5);
        let c = a.mul(&b).unwrap();
        assert!(c.is_phantom());
        assert_eq!((c.rows(), c.cols()), (10, 5));
        assert_eq!(c.nnz(), 50); // dense × dense stays dense
    }

    #[test]
    fn phantom_mul_sparse_estimate_reasonable() {
        // 1% dense operands over a length-100 shared dimension:
        // p = 1 - (1 - 1e-4)^100 ≈ 1%.
        let a = Tile::phantom(100, 100, 100);
        let b = Tile::phantom(100, 100, 100);
        let c = a.mul(&b).unwrap();
        let density = c.nnz() as f64 / 10_000.0;
        assert!(density > 0.005 && density < 0.02, "density {density}");
    }

    #[test]
    fn phantom_taints_real() {
        let a = Tile::phantom_dense(2, 2);
        let b = d(2, 2, vec![1.0; 4]);
        assert!(a.mul(&b).unwrap().is_phantom());
        assert!(b.mul(&a).unwrap().is_phantom());
        let mut acc = b.clone();
        acc.add_assign(&a).unwrap();
        assert!(acc.is_phantom());
    }

    #[test]
    fn mul_shape_mismatch() {
        let a = Tile::zeros(2, 3);
        let b = Tile::zeros(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn add_assign_combos() {
        let base = DenseTile::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let sp = CsrTile::from_dense(&base);
        // dense += sparse
        let mut t = Tile::dense(base.clone());
        t.add_assign(&Tile::sparse(sp.clone())).unwrap();
        assert_eq!(t.to_dense().unwrap().data(), &[2.0, 0.0, 0.0, 4.0]);
        // sparse += sparse stays sparse
        let mut t = Tile::sparse(sp.clone());
        t.add_assign(&Tile::sparse(sp.clone())).unwrap();
        assert!(t.is_sparse());
        assert_eq!(t.to_dense().unwrap().data(), &[2.0, 0.0, 0.0, 4.0]);
        // sparse += dense promotes
        let mut t = Tile::sparse(sp);
        t.add_assign(&Tile::dense(base)).unwrap();
        assert!(!t.is_sparse());
    }

    #[test]
    fn elementwise_all_ops() {
        let a = d(1, 2, vec![4.0, 9.0]);
        let b = d(1, 2, vec![2.0, 3.0]);
        assert_eq!(a.elementwise(&b, ElemOp::Add).unwrap().sum(), 18.0);
        assert_eq!(a.elementwise(&b, ElemOp::Sub).unwrap().sum(), 8.0);
        assert_eq!(a.elementwise(&b, ElemOp::Mul).unwrap().sum(), 35.0);
        assert_eq!(a.elementwise(&b, ElemOp::Div).unwrap().sum(), 5.0);
    }

    #[test]
    fn sparse_elementwise_stays_sparse() {
        let s = Tile::sparse(CsrTile::from_triples(2, 2, vec![(0, 0, 6.0)]));
        let dn = d(2, 2, vec![2.0; 4]);
        let m = s.elementwise(&dn, ElemOp::Mul).unwrap();
        assert!(m.is_sparse());
        assert_eq!(m.sum(), 12.0);
        let q = s.elementwise(&dn, ElemOp::Div).unwrap();
        assert!(q.is_sparse());
        assert_eq!(q.sum(), 3.0);
    }

    #[test]
    fn phantom_elementwise_nnz() {
        let a = Tile::phantom(10, 10, 50);
        let b = Tile::phantom(10, 10, 50);
        let add = a.elementwise(&b, ElemOp::Add).unwrap();
        assert_eq!(add.nnz(), 75); // union of independent 50% supports
        let mul = a.elementwise(&b, ElemOp::Mul).unwrap();
        assert_eq!(mul.nnz(), 25); // intersection
        let div = a.elementwise(&b, ElemOp::Div).unwrap();
        assert_eq!(div.nnz(), 50); // numerator support
    }

    #[test]
    fn transpose_and_scale() {
        let a = d(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        let mut p = Tile::phantom(2, 3, 4);
        let pt = p.transpose();
        assert_eq!((pt.rows(), pt.cols()), (3, 2));
        assert_eq!(pt.nnz(), 4);
        p.scale(0.0);
        assert_eq!(p.nnz(), 0);
    }

    #[test]
    fn map_preserves_kind() {
        let a = d(1, 2, vec![4.0, 9.0]);
        assert_eq!(a.map(f64::sqrt).sum(), 5.0);
        let s = Tile::sparse(CsrTile::from_triples(1, 2, vec![(0, 0, 4.0)]));
        let m = s.map(f64::sqrt);
        assert!(m.is_sparse());
        assert_eq!(m.sum(), 2.0);
        let p = Tile::phantom(1, 2, 1);
        assert!(p.map(f64::sqrt).is_phantom());
    }

    #[test]
    fn stored_bytes_picks_cheaper_for_phantom() {
        let dense_phantom = Tile::phantom_dense(100, 100);
        assert_eq!(dense_phantom.stored_bytes(), 24 + 80_000);
        let sparse_phantom = Tile::phantom(100, 100, 10);
        assert_eq!(sparse_phantom.stored_bytes(), 24 + 4 * 101 + 120);
    }

    #[test]
    fn density_and_caps() {
        let t = Tile::phantom(10, 10, 1_000_000); // capped at capacity
        assert_eq!(t.nnz(), 100);
        assert_eq!(t.density(), 1.0);
    }
}
