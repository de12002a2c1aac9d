//! BLIS-style panel packing for the packed GEMM path.
//!
//! The packed kernel never touches the row-major operands directly.
//! Instead each cache block is copied once into a contiguous buffer whose
//! layout matches exactly the order the microkernel consumes it, so the
//! innermost loops issue nothing but sequential loads:
//!
//! * **A blocks** (`mc × kc`) become `⌈mc/MR⌉` micro-panels of `kc`
//!   steps, each step holding `MR` consecutive rows' elements for one
//!   `k` — element `(k, r)` of panel `ip` lives at
//!   `ip·kc·MR + k·MR + r`.
//! * **B blocks** (`kc × nc`) become `⌈nc/NR⌉` micro-panels of `kc`
//!   steps of `NR` consecutive columns — element `(k, j)` of panel `jp`
//!   lives at `jp·kc·NR + k·NR + j`.
//!
//! A left operand stored transposed (`Aᵀ` row-major, as a tile of `A'`
//! is) packs into the same layout with `pack_a_t`: there the `MR` rows
//! of one `k` step are already contiguous, so no transposed copy of the
//! tile is ever built.
//!
//! Edge panels (when `mc % MR != 0` or `nc % NR != 0`) are zero-padded to
//! full width: the microkernel always computes a full `MR × NR` tile and
//! the macrokernel's write-back masks out the padding, so the kernel
//! itself has no edge cases. Padding contributes `0·x` terms only to
//! accumulator lanes that are never written back, so it cannot perturb
//! results.

use crate::microkernel::{MR, NR};

/// The pack buffers of the packed GEMM, reusable across calls.
///
/// Packing replaces a buffer's contents and keeps its capacity, so a
/// caller that multiplies many same-shaped tiles (one task's band) makes
/// one scratch and passes it to every multiply: the buffers are allocated
/// once per scratch instead of once per call. Scratch is owned by its
/// caller — there is no pool — so nothing is shared between tasks.
#[derive(Debug, Default)]
pub struct PackScratch {
    pub(crate) a: Vec<f64>,
    pub(crate) b: Vec<f64>,
}

/// The left operand of a packed GEMM as it is stored.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Left<'a> {
    /// `A` itself, row-major `m × l`.
    Plain(&'a [f64]),
    /// `Aᵀ` row-major `l × m`, packed without transposing.
    Transposed(&'a [f64]),
}

impl Left<'_> {
    /// Packs the `mc × kc` block of `A` at `(i0, k0)`, whose shape is
    /// `m × l`, into `out` (see [`pack_a`] / [`pack_a_t`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pack(
        self,
        m: usize,
        l: usize,
        i0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        out: &mut Vec<f64>,
    ) {
        match self {
            Left::Plain(a) => pack_a(a, l, i0, mc, k0, kc, out),
            Left::Transposed(at) => pack_a_t(at, m, i0, mc, k0, kc, out),
        }
    }
}

/// Packs the `mc × kc` block of row-major `a` (leading dimension `lda`)
/// starting at `(i0, k0)` into `MR`-interleaved micro-panels, replacing
/// the contents of `out`.
pub(crate) fn pack_a(
    a: &[f64],
    lda: usize,
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    out: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(MR);
    out.clear();
    out.resize(panels * kc * MR, 0.0);
    for ip in 0..panels {
        let i_base = i0 + ip * MR;
        let rows = MR.min(i0 + mc - i_base);
        let dst = &mut out[ip * kc * MR..(ip + 1) * kc * MR];
        for r in 0..rows {
            let src = &a[(i_base + r) * lda + k0..][..kc];
            for (k, &v) in src.iter().enumerate() {
                dst[k * MR + r] = v;
            }
        }
    }
}

/// [`pack_a`] of `A` read from `at` = `Aᵀ` stored row-major (leading
/// dimension `ldat`, the row count of `A`): produces exactly the panels
/// `pack_a` would from a materialised `A`. For each `k` step the `MR`
/// rows of a panel are one contiguous run of `at`'s row `k0 + k`.
pub(crate) fn pack_a_t(
    at: &[f64],
    ldat: usize,
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    out: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(MR);
    out.clear();
    out.resize(panels * kc * MR, 0.0);
    for ip in 0..panels {
        let i_base = i0 + ip * MR;
        let rows = MR.min(i0 + mc - i_base);
        let dst = &mut out[ip * kc * MR..(ip + 1) * kc * MR];
        for (k, step) in dst.chunks_exact_mut(MR).enumerate() {
            step[..rows].copy_from_slice(&at[(k0 + k) * ldat + i_base..][..rows]);
        }
    }
}

/// Packs the `kc × nc` block of row-major `b` (leading dimension `ldb`)
/// starting at `(k0, j0)` into `NR`-wide micro-panels, replacing the
/// contents of `out`.
pub(crate) fn pack_b(
    b: &[f64],
    ldb: usize,
    k0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(NR);
    out.clear();
    out.resize(panels * kc * NR, 0.0);
    for jp in 0..panels {
        let j_base = j0 + jp * NR;
        let cols = NR.min(j0 + nc - j_base);
        let dst = &mut out[jp * kc * NR..(jp + 1) * kc * NR];
        for k in 0..kc {
            let src = &b[(k0 + k) * ldb + j_base..][..cols];
            dst[k * NR..k * NR + cols].copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layout_and_padding() {
        // 5×6 matrix, pack the full thing: 2 panels (rows 0-3, row 4 + pad).
        let lda = 6;
        let a: Vec<f64> = (0..5 * lda).map(|i| i as f64).collect();
        let mut out = Vec::new();
        pack_a(&a, lda, 0, 5, 0, 6, &mut out);
        assert_eq!(out.len(), 2 * 6 * MR);
        // Panel 0, k=2 holds column 2 of rows 0..4.
        assert_eq!(&out[2 * MR..3 * MR], &[2.0, 8.0, 14.0, 20.0]);
        // Panel 1, k=0 holds row 4 then zero padding.
        assert_eq!(&out[6 * MR..6 * MR + MR], &[24.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_a_sub_block() {
        let lda = 4;
        let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut out = Vec::new();
        // Block rows 1..3, cols 1..3 of a 4×4.
        pack_a(&a, lda, 1, 2, 1, 2, &mut out);
        assert_eq!(out.len(), 2 * MR);
        assert_eq!(&out[..MR], &[5.0, 9.0, 0.0, 0.0]); // k=0: a[1][1], a[2][1]
        assert_eq!(&out[MR..], &[6.0, 10.0, 0.0, 0.0]); // k=1: a[1][2], a[2][2]
    }

    #[test]
    fn pack_a_t_equals_pack_a_of_the_transpose() {
        // A is 7×9 (two panels, the second ragged); Aᵀ is stored 9×7.
        let (m, l) = (7, 9);
        let a: Vec<f64> = (0..m * l).map(|i| i as f64 + 0.5).collect();
        let mut at = vec![0.0; l * m];
        for i in 0..m {
            for k in 0..l {
                at[k * m + i] = a[i * l + k];
            }
        }
        for (i0, mc, k0, kc) in [(0, 7, 0, 9), (1, 5, 2, 6), (3, 4, 8, 1)] {
            let (mut want, mut got) = (Vec::new(), vec![999.0; 3]);
            pack_a(&a, l, i0, mc, k0, kc, &mut want);
            pack_a_t(&at, m, i0, mc, k0, kc, &mut got);
            assert_eq!(got, want, "block ({i0},{mc},{k0},{kc})");
        }
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 3×10 matrix: 2 panels (cols 0..8, cols 8..10 + pad).
        let ldb = 10;
        let b: Vec<f64> = (0..3 * ldb).map(|i| i as f64).collect();
        let mut out = Vec::new();
        pack_b(&b, ldb, 0, 3, 0, 10, &mut out);
        assert_eq!(out.len(), 2 * 3 * NR);
        // Panel 0, k=1 is row 1, cols 0..8.
        assert_eq!(
            &out[NR..2 * NR],
            &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        );
        // Panel 1, k=0 is row 0, cols 8..10 then zero padding.
        assert_eq!(
            &out[3 * NR..4 * NR],
            &[8.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn buffers_are_reusable() {
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut out = vec![999.0; 1000];
        pack_a(&a, 8, 0, 8, 0, 8, &mut out);
        assert_eq!(out.len(), 2 * 8 * MR);
        pack_b(&a, 8, 0, 8, 0, 8, &mut out);
        assert_eq!(out.len(), 8 * NR);
        assert!(!out.contains(&999.0));
    }
}
