//! Compressed sparse row (CSR) tiles and sparse kernels.

use crate::dense::DenseTile;
use crate::error::{MatrixError, Result};

/// A CSR-encoded sparse tile.
///
/// Used for the sparse inputs of statistical workloads (e.g. document-term
/// matrices in GNMF). Products with dense tiles produce dense tiles, the
/// common pattern in `V × H'`-style updates.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrTile {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrTile {
    /// Builds a CSR tile from raw arrays, validating the structure.
    pub(crate) fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(MatrixError::InvalidSparse(format!(
                "row_ptr length {} != rows+1 {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(MatrixError::InvalidSparse(format!(
                "col_idx length {} != values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() as usize != values.len() {
            return Err(MatrixError::InvalidSparse(
                "row_ptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(MatrixError::InvalidSparse(
                "row_ptr must be non-decreasing".to_string(),
            ));
        }
        if col_idx.iter().any(|&c| c as usize >= cols) {
            return Err(MatrixError::InvalidSparse(
                "column index out of range".to_string(),
            ));
        }
        Ok(CsrTile {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR tile from `(row, col, value)` triples. Triples may be in
    /// any order; duplicate coordinates are summed.
    pub(crate) fn from_triples(
        rows: usize,
        cols: usize,
        mut triples: Vec<(usize, usize, f64)>,
    ) -> Self {
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0u32; rows + 1];
        let mut col_idx = Vec::with_capacity(triples.len());
        let mut values: Vec<f64> = Vec::with_capacity(triples.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in triples {
            debug_assert!(r < rows && c < cols, "triple out of bounds");
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty after first push") += v;
            } else {
                row_ptr[r + 1] += 1;
                col_idx.push(c as u32);
                values.push(v);
                last = Some((r, c));
            }
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrTile {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts a dense tile, dropping explicit zeros.
    pub fn from_dense(d: &DenseTile) -> Self {
        let mut triples = Vec::new();
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                let v = d.get(i, j);
                if v != 0.0 {
                    triples.push((i, j, v));
                }
            }
        }
        Self::from_triples(d.rows(), d.cols(), triples)
    }

    /// Materialises this tile as dense.
    pub fn to_dense(&self) -> DenseTile {
        let mut out = DenseTile::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_range(i) {
                out.set(i, self.col_idx[k] as usize, self.values[k]);
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> u64 {
        self.values.len() as u64
    }

    /// Raw CSR parts `(row_ptr, col_idx, values)`, for serialization.
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// Iterates stored entries as `(row, col, value)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_range(i)
                .map(move |k| (i, self.col_idx[k] as usize, self.values[k]))
        })
    }

    fn check_spmm_shapes(&self, c: &DenseTile, b: &DenseTile) -> Result<()> {
        if self.cols != b.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "spmm",
                left: (self.rows, self.cols),
                right: (b.rows(), b.cols()),
            });
        }
        if c.rows() != self.rows || c.cols() != b.cols() {
            return Err(MatrixError::ShapeMismatch {
                op: "spmm-out",
                left: (c.rows(), c.cols()),
                right: (self.rows, b.cols()),
            });
        }
        Ok(())
    }

    /// `c += self × b` where `b` and `c` are dense (SpMM).
    ///
    /// Row-blocked with `LANES`-wide register accumulators: each block of
    /// output columns is loaded from `c` once, every stored entry of the
    /// row streams its gathered `b` lane into the accumulators, and the
    /// block stores back once — instead of a full load/store sweep of the
    /// `c` row per nonzero ([`spmm_acc_reference`](Self::spmm_acc_reference)).
    /// Each output element still accumulates in `k`-ascending order with
    /// the identical `c + aik·b` operations, so results are
    /// **bitwise-identical** to the reference kernel (pinned by the
    /// `kernel-conformance` invariant).
    pub fn spmm_acc(&self, c: &mut DenseTile, b: &DenseTile) -> Result<()> {
        self.check_spmm_shapes(c, b)?;
        const LANES: usize = 8;
        let n = b.cols();
        let bd = b.data();
        for i in 0..self.rows {
            let range = self.row_range(i);
            if range.is_empty() {
                continue;
            }
            let cols_idx = &self.col_idx[range.clone()];
            let vals = &self.values[range];
            let c_row = &mut c.data_mut()[i * n..(i + 1) * n];
            let mut j0 = 0;
            while j0 + LANES <= n {
                let mut acc: [f64; LANES] = c_row[j0..j0 + LANES].try_into().expect("lane");
                for (&cidx, &aik) in cols_idx.iter().zip(vals.iter()) {
                    let b_lane = &bd[cidx as usize * n + j0..][..LANES];
                    for (av, bv) in acc.iter_mut().zip(b_lane.iter()) {
                        *av += aik * *bv;
                    }
                }
                c_row[j0..j0 + LANES].copy_from_slice(&acc);
                j0 += LANES;
            }
            if j0 < n {
                let rem = n - j0;
                let mut acc = [0.0; LANES];
                acc[..rem].copy_from_slice(&c_row[j0..]);
                for (&cidx, &aik) in cols_idx.iter().zip(vals.iter()) {
                    let b_lane = &bd[cidx as usize * n + j0..][..rem];
                    for (av, bv) in acc.iter_mut().zip(b_lane.iter()) {
                        *av += aik * *bv;
                    }
                }
                c_row[j0..].copy_from_slice(&acc[..rem]);
            }
        }
        Ok(())
    }

    /// The original streaming SpMM: one full `c`-row axpy per stored
    /// entry. Kept as the cross-checked reference path for
    /// [`spmm_acc`](Self::spmm_acc) — the optimized kernel must match it
    /// bitwise.
    pub fn spmm_acc_reference(&self, c: &mut DenseTile, b: &DenseTile) -> Result<()> {
        self.check_spmm_shapes(c, b)?;
        let n = b.cols();
        for i in 0..self.rows {
            for k in self.row_range(i) {
                let aik = self.values[k];
                let brow = self.col_idx[k] as usize;
                let b_row = &b.data()[brow * n..(brow + 1) * n];
                let c_row = &mut c.data_mut()[i * n..(i + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += aik * *bv;
                }
            }
        }
        Ok(())
    }

    fn check_gemm_ds_shapes(&self, c: &DenseTile, a: &DenseTile) -> Result<()> {
        if a.cols() != self.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm-ds",
                left: (a.rows(), a.cols()),
                right: (self.rows, self.cols),
            });
        }
        if c.rows() != a.rows() || c.cols() != self.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm-ds-out",
                left: (c.rows(), c.cols()),
                right: (a.rows(), self.cols),
            });
        }
        Ok(())
    }

    /// `c += a × self` where `a` and `c` are dense (dense × sparse).
    ///
    /// Row-blocked: four dense rows of `a`/`c` are processed per CSR
    /// traversal, scattering each sparse entry into four cache-resident
    /// `c` rows at once — quartering the index/value re-read traffic and
    /// replacing the reference kernel's column-strided scatter
    /// ([`gemm_ds_acc_reference`](Self::gemm_ds_acc_reference)) with
    /// row-local writes. For every output element the contributions still
    /// arrive in `(k, p)`-ascending order with identical arithmetic, so
    /// results are **bitwise-identical** to the reference kernel (pinned
    /// by the `kernel-conformance` invariant).
    pub fn gemm_ds_acc(&self, c: &mut DenseTile, a: &DenseTile) -> Result<()> {
        self.check_gemm_ds_shapes(c, a)?;
        let m = a.rows();
        let ac = a.cols();
        let cc = c.cols();
        let ad = a.data();
        let cd = c.data_mut();
        let mut i = 0;
        while i + 4 <= m {
            let (c01, c23) = cd[i * cc..(i + 4) * cc].split_at_mut(2 * cc);
            let (c0, c1) = c01.split_at_mut(cc);
            let (c2, c3) = c23.split_at_mut(cc);
            let a0 = &ad[i * ac..(i + 1) * ac];
            let a1 = &ad[(i + 1) * ac..(i + 2) * ac];
            let a2 = &ad[(i + 2) * ac..(i + 3) * ac];
            let a3 = &ad[(i + 3) * ac..(i + 4) * ac];
            for k in 0..self.rows {
                let (v0, v1, v2, v3) = (a0[k], a1[k], a2[k], a3[k]);
                for p in self.row_range(k) {
                    let j = self.col_idx[p] as usize;
                    let v = self.values[p];
                    c0[j] += v0 * v;
                    c1[j] += v1 * v;
                    c2[j] += v2 * v;
                    c3[j] += v3 * v;
                }
            }
            i += 4;
        }
        while i < m {
            let c_row = &mut cd[i * cc..(i + 1) * cc];
            let a_row = &ad[i * ac..(i + 1) * ac];
            for (k, &vk) in a_row.iter().enumerate() {
                for p in self.row_range(k) {
                    c_row[self.col_idx[p] as usize] += vk * self.values[p];
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// The original column-scatter dense × sparse kernel: entry `(k, j)`
    /// of `self` scales column `k` of `a` into column `j` of `c`. Kept as
    /// the cross-checked reference path for
    /// [`gemm_ds_acc`](Self::gemm_ds_acc) — the optimized kernel must
    /// match it bitwise.
    pub fn gemm_ds_acc_reference(&self, c: &mut DenseTile, a: &DenseTile) -> Result<()> {
        self.check_gemm_ds_shapes(c, a)?;
        let m = a.rows();
        let ac = a.cols();
        let cc = c.cols();
        for k in 0..self.rows {
            for p in self.row_range(k) {
                let j = self.col_idx[p] as usize;
                let v = self.values[p];
                for i in 0..m {
                    let add = a.data()[i * ac + k] * v;
                    c.data_mut()[i * cc + j] += add;
                }
            }
        }
        Ok(())
    }

    /// Sparse × sparse product, returning a sparse tile (classic Gustavson
    /// row-by-row algorithm with a dense accumulator per row).
    pub fn spgemm(&self, b: &CsrTile) -> Result<CsrTile> {
        if self.cols != b.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "spgemm",
                left: (self.rows, self.cols),
                right: (b.rows, b.cols),
            });
        }
        let mut acc = vec![0.0f64; b.cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut triples = Vec::new();
        for i in 0..self.rows {
            touched.clear();
            for k in self.row_range(i) {
                let aik = self.values[k];
                let arow = self.col_idx[k] as usize;
                for p in b.row_range(arow) {
                    let j = b.col_idx[p] as usize;
                    if acc[j] == 0.0 {
                        touched.push(j as u32);
                    }
                    acc[j] += aik * b.values[p];
                }
            }
            for &j in &touched {
                let v = acc[j as usize];
                if v != 0.0 {
                    triples.push((i, j as usize, v));
                }
                acc[j as usize] = 0.0;
            }
        }
        Ok(CsrTile::from_triples(self.rows, b.cols, triples))
    }

    /// Element-wise product with a dense tile, returning a sparse tile with
    /// the same (or smaller) support as `self`. This is the "mask" pattern:
    /// in GNMF the residual only needs evaluating at the support of V.
    pub(crate) fn elem_mul_dense(&self, d: &DenseTile) -> Result<CsrTile> {
        if self.rows != d.rows() || self.cols != d.cols() {
            return Err(MatrixError::ShapeMismatch {
                op: "sparse_elem_mul",
                left: (self.rows, self.cols),
                right: (d.rows(), d.cols()),
            });
        }
        let triples = self
            .iter()
            .map(|(i, j, v)| (i, j, v * d.get(i, j)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        Ok(CsrTile::from_triples(self.rows, self.cols, triples))
    }

    /// Element-wise division `self / d` at the support of `self` (zero
    /// denominators yield zero, matching [`DenseTile::div_assign_elem`]).
    pub(crate) fn elem_div_dense(&self, d: &DenseTile) -> Result<CsrTile> {
        if self.rows != d.rows() || self.cols != d.cols() {
            return Err(MatrixError::ShapeMismatch {
                op: "sparse_elem_div",
                left: (self.rows, self.cols),
                right: (d.rows(), d.cols()),
            });
        }
        let triples = self
            .iter()
            .map(|(i, j, v)| {
                let den = d.get(i, j);
                (i, j, if den == 0.0 { 0.0 } else { v / den })
            })
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        Ok(CsrTile::from_triples(self.rows, self.cols, triples))
    }

    /// Sparse addition.
    pub fn add(&self, other: &CsrTile) -> Result<CsrTile> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "sparse_add",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut triples: Vec<(usize, usize, f64)> = self.iter().collect();
        triples.extend(other.iter());
        let merged = CsrTile::from_triples(self.rows, self.cols, triples);
        // Drop entries that cancelled to exactly zero.
        let surviving = merged.iter().filter(|&(_, _, v)| v != 0.0).collect();
        Ok(CsrTile::from_triples(self.rows, self.cols, surviving))
    }

    /// Transpose, returning a new CSR tile.
    pub(crate) fn transpose(&self) -> CsrTile {
        let triples = self.iter().map(|(i, j, v)| (j, i, v)).collect();
        CsrTile::from_triples(self.cols, self.rows, triples)
    }

    /// Scales every stored value by `s`.
    pub(crate) fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Sum of all entries.
    pub(crate) fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Squared Frobenius norm.
    pub(crate) fn frob_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrTile {
        // [1 0 2]
        // [0 0 3]
        CsrTile::from_triples(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
    }

    #[test]
    fn triples_roundtrip_dense() {
        let s = sample();
        let d = s.to_dense();
        assert_eq!(d.data(), &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0]);
        assert_eq!(CsrTile::from_dense(&d), s);
    }

    #[test]
    fn duplicate_triples_are_summed() {
        let s = CsrTile::from_triples(1, 2, vec![(0, 1, 2.0), (0, 1, 3.0)]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense().data(), &[0.0, 5.0]);
    }

    #[test]
    fn unsorted_triples() {
        let s = CsrTile::from_triples(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0), (1, 0, 3.0)]);
        assert_eq!(s.to_dense().data(), &[1.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn from_raw_validation() {
        assert!(CsrTile::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // short row_ptr
        assert!(CsrTile::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err()); // len mismatch
        assert!(CsrTile::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err()); // col oob
        assert!(CsrTile::from_raw(1, 2, vec![1, 1], vec![], vec![]).is_err()); // bad start
        assert!(CsrTile::from_raw(1, 2, vec![0, 1], vec![1], vec![2.0]).is_ok());
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let b = DenseTile::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut c = DenseTile::zeros(2, 2);
        s.spmm_acc(&mut c, &b).unwrap();
        let dense_c = DenseTile::matmul(&s.to_dense(), &b).unwrap();
        assert_eq!(c, dense_c);
    }

    #[test]
    fn spmm_accumulates() {
        let s = sample();
        let b = DenseTile::from_vec(3, 2, vec![1.0; 6]);
        let mut c = DenseTile::from_vec(2, 2, vec![10.0; 4]);
        s.spmm_acc(&mut c, &b).unwrap();
        assert_eq!(c.data(), &[13.0, 13.0, 13.0, 13.0]);
    }

    #[test]
    fn gemm_ds_matches_dense() {
        let s = sample(); // 2x3
        let a = DenseTile::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut c = DenseTile::zeros(2, 3);
        s.gemm_ds_acc(&mut c, &a).unwrap();
        let expect = DenseTile::matmul(&a, &s.to_dense()).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sample(); // 2x3
        let b = a.transpose(); // 3x2
        let c = a.spgemm(&b).unwrap();
        let expect = DenseTile::matmul(&a.to_dense(), &b.to_dense()).unwrap();
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn spgemm_shape_mismatch() {
        let a = sample();
        assert!(a.spgemm(&sample()).is_err());
    }

    #[test]
    fn elem_ops_on_support() {
        let s = sample();
        let d = DenseTile::from_vec(2, 3, vec![2.0; 6]);
        let m = s.elem_mul_dense(&d).unwrap();
        assert_eq!(m.to_dense().data(), &[2.0, 0.0, 4.0, 0.0, 0.0, 6.0]);
        let q = s.elem_div_dense(&d).unwrap();
        assert_eq!(q.to_dense().data(), &[0.5, 0.0, 1.0, 0.0, 0.0, 1.5]);
    }

    #[test]
    fn elem_div_zero_denominator() {
        let s = sample();
        let zeros = DenseTile::zeros(2, 3);
        let q = s.elem_div_dense(&zeros).unwrap();
        assert_eq!(q.nnz(), 0);
    }

    #[test]
    fn sparse_add_and_cancel() {
        let s = sample();
        let mut neg = s.clone();
        neg.scale(-1.0);
        let z = s.add(&neg).unwrap();
        assert_eq!(z.nnz(), 0);
        let two = s.add(&s).unwrap();
        assert_eq!(two.to_dense().data(), &[2.0, 0.0, 4.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let s = sample();
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn reductions() {
        let s = sample();
        assert_eq!(s.sum(), 6.0);
        assert_eq!(s.frob_sq(), 14.0);
    }

    #[test]
    fn iter_yields_sorted_triples() {
        let s = sample();
        let t: Vec<_> = s.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0)]);
    }
}
