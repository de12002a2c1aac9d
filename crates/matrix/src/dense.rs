//! Dense row-major tiles and their kernels.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{MatrixError, Result};
use crate::microkernel::{Kernel, MR, NR};
use crate::pack::{self, Left, PackScratch};

/// Worker threads the packed GEMM kernel may use *inside one tile
/// multiply* (`0` = all host cores, `1` = serial). Default 1: intra-task
/// threading is opt-in because the cluster executor already parallelizes
/// across tasks; splitting inside a task only pays off for huge tiles on
/// otherwise-idle cores.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the intra-kernel thread count (process-global; `0` = all host
/// cores, `1` = serial). Results are bitwise-identical at every setting:
/// threads split the output into disjoint row panels, so each element's
/// summation order never changes.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n, Ordering::Relaxed);
}

/// Current intra-kernel thread setting (resolved: `0` becomes the host
/// core count).
pub fn kernel_threads() -> usize {
    match KERNEL_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// A dense row-major `f64` tile.
///
/// Tiles are small enough (a few MB) that row-major with a register-blocked
/// GEMM microkernel is competitive without further packing.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTile {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseTile {
    /// Creates a zero-filled tile.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseTile {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tile from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "dense tile data length must equal rows*cols"
        );
        DenseTile { rows, cols, data }
    }

    /// Creates a tile by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseTile { rows, cols, data }
    }

    /// Creates an identity-pattern tile (1.0 where `row == col`).
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
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

    /// Row-major backing slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tile, returning its backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Number of non-zero entries (exact count).
    pub(crate) fn nnz(&self) -> u64 {
        self.data.iter().filter(|&&v| v != 0.0).count() as u64
    }

    /// `self += other`, element-wise.
    pub(crate) fn add_assign(&mut self, other: &DenseTile) -> Result<()> {
        self.check_same_shape("add", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// `self -= other`, element-wise.
    pub(crate) fn sub_assign(&mut self, other: &DenseTile) -> Result<()> {
        self.check_same_shape("sub", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
        Ok(())
    }

    /// `self *= other`, element-wise (Hadamard product).
    pub(crate) fn mul_assign_elem(&mut self, other: &DenseTile) -> Result<()> {
        self.check_same_shape("elem_mul", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= *b;
        }
        Ok(())
    }

    /// `self /= other`, element-wise. Division by zero yields zero, matching
    /// the convention GNMF-style multiplicative updates rely on (a zero
    /// denominator only occurs where the numerator is also zero).
    pub(crate) fn div_assign_elem(&mut self, other: &DenseTile) -> Result<()> {
        self.check_same_shape("elem_div", other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = if *b == 0.0 { 0.0 } else { *a / *b };
        }
        Ok(())
    }

    /// Scales every element by `s`.
    pub(crate) fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Returns the transposed tile.
    pub fn transpose(&self) -> DenseTile {
        let mut out = DenseTile::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger tiles.
        const B: usize = 32;
        for bi in (0..self.rows).step_by(B) {
            for bj in (0..self.cols).step_by(B) {
                let imax = (bi + B).min(self.rows);
                let jmax = (bj + B).min(self.cols);
                for i in bi..imax {
                    for j in bj..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Sum of all elements.
    pub(crate) fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub(crate) fn frob_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// `c += a × b` (accumulating GEMM). This is the workhorse of the whole
    /// system: partial products over the shared dimension accumulate into
    /// the same output tile.
    ///
    /// Dispatches between a streaming i-k-j kernel (small/skinny operands)
    /// and the packed-panel SIMD kernel (large tiles) — see
    /// [`DenseTile::gemm_acc_packed`].
    pub fn gemm_acc(c: &mut DenseTile, a: &DenseTile, b: &DenseTile) -> Result<()> {
        Self::gemm_acc_in(c, a, b, &mut PackScratch::default())
    }

    /// [`gemm_acc`](Self::gemm_acc) packing into the caller's scratch.
    pub(crate) fn gemm_acc_in(
        c: &mut DenseTile,
        a: &DenseTile,
        b: &DenseTile,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        Self::check_gemm_shapes(c, a, b)?;
        if Self::packs(a.rows, a.cols, b.cols) {
            Self::gemm_acc_packed_in(c, a, b, scratch)
        } else {
            Self::gemm_acc_streaming(c, a, b)
        }
    }

    /// Whether [`gemm_acc`](Self::gemm_acc) sends an `m × l` by `l × n`
    /// multiply to the packed kernel.
    pub(crate) fn packs(m: usize, l: usize, n: usize) -> bool {
        // Crossover measured when the packed kernel landed (its CHANGES.md
        // entry): streaming wins below n≈8 (0.4x at n=4, where packing/alloc overhead
        // dominates a sub-microsecond multiply), ties at 6, and packed
        // wins from 8 up (1.5x at n=8 rising to 2.8x by n=48).
        const PACKED_MIN_DIM: usize = 8;
        m >= PACKED_MIN_DIM && l >= PACKED_MIN_DIM && n >= PACKED_MIN_DIM
    }

    fn check_gemm_shapes(c: &DenseTile, a: &DenseTile, b: &DenseTile) -> Result<()> {
        if a.cols != b.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm",
                left: (a.rows, a.cols),
                right: (b.rows, b.cols),
            });
        }
        if c.rows != a.rows || c.cols != b.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm-out",
                left: (c.rows, c.cols),
                right: (a.rows, b.cols),
            });
        }
        Ok(())
    }

    /// The streaming i-k-j kernel: the inner loop runs over whole rows of
    /// `b` and `c`, vectorized via `axpy_row`; zero entries of `a` are
    /// skipped (helpful for nearly-sparse dense tiles).
    pub fn gemm_acc_streaming(c: &mut DenseTile, a: &DenseTile, b: &DenseTile) -> Result<()> {
        Self::check_gemm_shapes(c, a, b)?;
        let n = b.cols;
        for i in 0..a.rows {
            let c_row = &mut c.data[i * n..(i + 1) * n];
            let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * n..(k + 1) * n];
                axpy_row(c_row, b_row, aik);
            }
        }
        Ok(())
    }

    /// BLIS-style packed-panel GEMM: `c += a × b`.
    ///
    /// The classic five-loop nest. Working from the outside in: `NC`-wide
    /// column slabs of `b`, `KC`-deep rank-k slices (packed once into
    /// `pack::pack_b` micro-panels), `MC`-tall row blocks of `a` (packed
    /// into `pack::pack_a` micro-panels), then register blocks computed
    /// by the [`crate::microkernel`]: 8×16 groups of micro-tiles on
    /// AVX-512, `MR × NR` tiles elsewhere and on odd leftover panels.
    /// Block sizes keep the A block (`MC·KC` ≈ 256 KiB) L2-resident and
    /// each B micro-panel (`KC·NR` = 32 KiB) close to L1 across all row
    /// panels.
    ///
    /// Numerics: each output element accumulates its `KC`-slice partial
    /// sums in `k`-ascending order into `c`, but the within-slice sum is
    /// associated differently from the streaming kernel (and contracted
    /// via FMA on SIMD hosts), so agreement with
    /// [`gemm_acc_streaming`](Self::gemm_acc_streaming) is epsilon-bounded
    /// rather than bitwise — pinned by the `kernel-conformance` invariant.
    /// Between the AVX2+FMA and AVX-512 levels it is bitwise.
    ///
    /// When [`kernel_threads`] is above 1 and the multiply is large enough
    /// to amortize thread startup, the `MC` row loop is split into
    /// contiguous `MR`-aligned chunks across scoped threads. Every output
    /// element is still computed by exactly one thread in exactly the
    /// serial order, so results are bitwise-identical at any thread count.
    pub fn gemm_acc_packed(c: &mut DenseTile, a: &DenseTile, b: &DenseTile) -> Result<()> {
        Self::gemm_acc_packed_in(c, a, b, &mut PackScratch::default())
    }

    /// [`gemm_acc_packed`](Self::gemm_acc_packed) packing into the caller's
    /// scratch, so a run of multiplies allocates its pack buffers once.
    pub(crate) fn gemm_acc_packed_in(
        c: &mut DenseTile,
        a: &DenseTile,
        b: &DenseTile,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        Self::check_gemm_shapes(c, a, b)?;
        gemm_packed(c, Left::Plain(&a.data), a.rows, a.cols, b, scratch);
        Ok(())
    }

    /// `c += atᵀ × b` where `at` holds `Aᵀ` as stored: the packed GEMM of
    /// [`gemm_acc_packed`](Self::gemm_acc_packed) with `A`'s panels packed
    /// straight from `at` (`pack::pack_a_t`) into the caller's scratch.
    /// Bitwise equal to `gemm_acc_packed(c, &at.transpose(), b)`, without
    /// building the transpose.
    pub fn gemm_acc_t_packed_in(
        c: &mut DenseTile,
        at: &DenseTile,
        b: &DenseTile,
        scratch: &mut PackScratch,
    ) -> Result<()> {
        let (m, l) = (at.cols, at.rows);
        if l != b.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm",
                left: (m, l),
                right: (b.rows, b.cols),
            });
        }
        if c.rows != m || c.cols != b.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "gemm-out",
                left: (c.rows, c.cols),
                right: (m, b.cols),
            });
        }
        gemm_packed(c, Left::Transposed(&at.data), m, l, b, scratch);
        Ok(())
    }

    /// Convenience wrapper: returns `a × b` as a fresh tile.
    pub fn matmul(a: &DenseTile, b: &DenseTile) -> Result<DenseTile> {
        Self::matmul_in(a, b, &mut PackScratch::default())
    }

    /// [`matmul`](Self::matmul) packing into the caller's scratch.
    pub(crate) fn matmul_in(
        a: &DenseTile,
        b: &DenseTile,
        scratch: &mut PackScratch,
    ) -> Result<DenseTile> {
        let mut c = DenseTile::zeros(a.rows, b.cols);
        DenseTile::gemm_acc_in(&mut c, a, b, scratch)?;
        Ok(c)
    }

    fn check_same_shape(&self, op: &'static str, other: &DenseTile) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(())
    }
}

/// The packed GEMM `c += A × b` for an `m × l` left operand `a` (shapes
/// already checked): the slab and rank-slice loops, `b` packed into
/// `scratch.b`, and the row loop serial (into `scratch.a`) or split across
/// threads.
fn gemm_packed(
    c: &mut DenseTile,
    a: Left<'_>,
    m: usize,
    l: usize,
    b: &DenseTile,
    scratch: &mut PackScratch,
) {
    const KC: usize = 512;
    const NC: usize = 4096;
    let n = b.cols;
    // Threads only engage above ~2·256³ flops: below that a tile
    // multiply is tens of microseconds and spawn overhead dominates.
    const PAR_MIN_FLOPS: f64 = 2.0 * 256.0 * 256.0 * 256.0;
    let mut threads = kernel_threads().min(m.div_ceil(MR));
    if (2.0 * m as f64 * l as f64 * n as f64) < PAR_MIN_FLOPS {
        threads = 1;
    }
    let kernel = Kernel::resolve();
    let block = RowBlock { kernel, a, m, l, n };
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..l).step_by(KC) {
            let kc = KC.min(l - k0);
            pack::pack_b(&b.data, n, k0, kc, j0, nc, &mut scratch.b);
            if threads <= 1 {
                block.run(
                    &mut c.data,
                    0,
                    m,
                    k0,
                    kc,
                    j0,
                    nc,
                    &scratch.b,
                    &mut scratch.a,
                );
            } else {
                // MR-aligned contiguous row chunks, one per thread.
                let chunk_rows = m.div_ceil(threads).div_ceil(MR) * MR;
                let b_pack = &scratch.b;
                let block = &block;
                std::thread::scope(|s| {
                    let mut rest = &mut c.data[..];
                    let mut row0 = 0;
                    while row0 < m {
                        let rows = chunk_rows.min(m - row0);
                        let (chunk, tail) = rest.split_at_mut(rows * n);
                        rest = tail;
                        s.spawn(move || {
                            let mut a_pack = Vec::new();
                            block.run(chunk, row0, rows, k0, kc, j0, nc, b_pack, &mut a_pack);
                        });
                        row0 += rows;
                    }
                });
            }
        }
    }
}

/// What the packed-GEMM macrokernel needs beyond one call's block
/// coordinates: the kernels resolved for this GEMM and the `m × l` left
/// operand of an `n`-column product.
struct RowBlock<'a> {
    kernel: Kernel,
    a: Left<'a>,
    m: usize,
    l: usize,
    n: usize,
}

impl RowBlock<'_> {
    /// The macrokernel over one contiguous chunk of output rows.
    ///
    /// `c_rows` is the chunk's backing slice (`rows × n`, starting at
    /// global row `row0`); `b_pack` holds the current `kc × nc` slab of `b`
    /// already packed. Packs each `MC`-tall A block into `a_pack` (a
    /// reusable scratch buffer) and covers its micro-panels with 8×16
    /// groups where the kernel has them and two A and two B panels remain,
    /// and with 4×8 tiles otherwise, masking the write-back at ragged
    /// edges.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        c_rows: &mut [f64],
        row0: usize,
        rows: usize,
        k0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        b_pack: &[f64],
        a_pack: &mut Vec<f64>,
    ) {
        const MC: usize = 64;
        let n = self.n;
        let jpanels = nc.div_ceil(NR);
        let group = if self.kernel.has_wide() { 2 } else { 1 };
        let b_panel = |jp: usize| &b_pack[jp * kc * NR..][..kc * NR];
        for ic in (0..rows).step_by(MC) {
            let mc = MC.min(rows - ic);
            self.a.pack(self.m, self.l, row0 + ic, mc, k0, kc, a_pack);
            let ipanels = mc.div_ceil(MR);
            let a_panel = |ip: usize| &a_pack[ip * kc * MR..][..kc * MR];
            // The output block whose top-left tile is (ip, jp), clipped to
            // the chunk and the slab.
            let clip = |ip: usize, jp: usize, h: usize, w: usize| {
                let (i, j) = (ic + ip * MR, j0 + jp * NR);
                (i, (h * MR).min(mc - ip * MR), j, (w * NR).min(j0 + nc - j))
            };
            let mut jp = 0;
            while jp < jpanels {
                let jw = if jp + group <= jpanels { group } else { 1 };
                let mut ip = 0;
                while ip < ipanels {
                    if jw == 2 && ip + 2 <= ipanels {
                        let mut acc = [[0.0; 2 * NR]; 2 * MR];
                        self.kernel.run_wide(
                            kc,
                            [a_panel(ip), a_panel(ip + 1)],
                            [b_panel(jp), b_panel(jp + 1)],
                            &mut acc,
                        );
                        add_block(c_rows, n, &acc, clip(ip, jp, 2, 2));
                        ip += 2;
                    } else {
                        for jq in jp..jp + jw {
                            let mut acc = [[0.0; NR]; MR];
                            self.kernel.run(kc, a_panel(ip), b_panel(jq), &mut acc);
                            add_block(c_rows, n, &acc, clip(ip, jq, 1, 1));
                        }
                        ip += 1;
                    }
                }
                jp += jw;
            }
        }
    }
}

/// `c += acc` over the `(row, rows, col, cols)` window of the row-major
/// `c` (row length `n`) that `acc`'s top-left corner lands on.
fn add_block<const W: usize>(
    c: &mut [f64],
    n: usize,
    acc: &[[f64; W]],
    (i, rows, j, cols): (usize, usize, usize, usize),
) {
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let c_row = &mut c[(i + r) * n + j..][..cols];
        for (cv, av) in c_row.iter_mut().zip(acc_row.iter()) {
            *cv += *av;
        }
    }
}

/// `y += alpha * x` over whole rows; written so LLVM vectorizes the loop.
#[inline]
fn axpy_row(y: &mut [f64], x: &[f64], alpha: f64) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tile_abc() -> (DenseTile, DenseTile) {
        let a = DenseTile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseTile::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        (a, b)
    }

    #[test]
    fn matmul_small() {
        let (a, b) = tile_abc();
        let c = DenseTile::matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_accumulates() {
        let (a, b) = tile_abc();
        let mut c = DenseTile::from_vec(2, 2, vec![1.0; 4]);
        DenseTile::gemm_acc(&mut c, &a, &b).unwrap();
        assert_eq!(c.data(), &[59.0, 65.0, 140.0, 155.0]);
    }

    #[test]
    fn gemm_shape_mismatch() {
        let a = DenseTile::zeros(2, 3);
        let b = DenseTile::zeros(4, 2);
        let mut c = DenseTile::zeros(2, 2);
        let err = DenseTile::gemm_acc(&mut c, &a, &b).unwrap_err();
        assert!(matches!(err, MatrixError::ShapeMismatch { op: "gemm", .. }));
    }

    #[test]
    fn gemm_out_shape_mismatch() {
        let (a, b) = tile_abc();
        let mut c = DenseTile::zeros(3, 3);
        let err = DenseTile::gemm_acc(&mut c, &a, &b).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::ShapeMismatch { op: "gemm-out", .. }
        ));
    }

    #[test]
    fn dispatcher_agrees_with_streaming() {
        let a = gen::dense_uniform_tile(1, 0, 0, 200, 200, -1.0, 1.0);
        let b = gen::dense_uniform_tile(2, 0, 0, 200, 200, -1.0, 1.0);
        let via_dispatch = DenseTile::matmul(&a, &b).unwrap();
        let mut via_stream = DenseTile::zeros(200, 200);
        DenseTile::gemm_acc_streaming(&mut via_stream, &a, &b).unwrap();
        for (x, y) in via_dispatch.data().iter().zip(via_stream.data().iter()) {
            assert!((x - y).abs() < 1e-9 * 200.0);
        }
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let (a, _) = tile_abc();
        let i3 = DenseTile::identity(3);
        let c = DenseTile::matmul(&a, &i3).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_roundtrip() {
        let (a, _) = tile_abc();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_blocked_matches_naive_on_odd_sizes() {
        let a = DenseTile::from_fn(37, 53, |i, j| (i * 53 + j) as f64);
        let t = a.transpose();
        for i in 0..37 {
            for j in 0..53 {
                assert_eq!(t.get(j, i), a.get(i, j));
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let mut a = DenseTile::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseTile::from_vec(1, 4, vec![2.0, 2.0, 0.0, 4.0]);
        a.mul_assign_elem(&b).unwrap();
        assert_eq!(a.data(), &[2.0, 4.0, 0.0, 16.0]);
        a.div_assign_elem(&b).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 0.0, 4.0]); // 0/0 -> 0
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[3.0, 4.0, 0.0, 8.0]);
        a.sub_assign(&b).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn elementwise_shape_check() {
        let mut a = DenseTile::zeros(2, 2);
        let b = DenseTile::zeros(2, 3);
        assert!(a.add_assign(&b).is_err());
        assert!(a.sub_assign(&b).is_err());
        assert!(a.mul_assign_elem(&b).is_err());
        assert!(a.div_assign_elem(&b).is_err());
    }

    #[test]
    fn scale_and_map() {
        let mut a = DenseTile::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[2.0, -4.0, 6.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = DenseTile::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.frob_sq(), 91.0);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn nnz_counts_zeros() {
        let a = DenseTile::from_vec(2, 2, vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(a.nnz(), 2);
    }
}
