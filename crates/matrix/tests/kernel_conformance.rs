//! Conformance of the optimized kernels against their reference paths.
//!
//! Four contracts, the first three mirroring the `kernel-conformance`
//! invariant in `cumulon check`:
//!
//! * the packed SIMD GEMM is **epsilon-bounded** against the naive
//!   reference (its summation association and FMA contraction differ);
//! * the optimized sparse kernels (`spmm_acc`, `gemm_ds_acc`) are
//!   **bitwise-identical** to their reference paths (per-element
//!   operation order is preserved exactly);
//! * intra-kernel threading is **bitwise-identical** at any thread count;
//! * every FMA clone computes every lane the same way, so the packed GEMM
//!   is **bitwise-identical** across block shapes and clones: the AVX-512
//!   8×16 groups equal the AVX2+FMA 4×8 tiles, and a transposed left
//!   operand packed as stored equals the materialised transpose — at the
//!   kernel, the tile and the work-accounting level.

use cumulon_matrix::dense::set_kernel_threads;
use cumulon_matrix::microkernel::{detected_simd_level, set_simd_override, SimdLevel};
use cumulon_matrix::ops::{mul_work, mul_work_transposed, Work};
use cumulon_matrix::{gen, reference, DenseTile, PackScratch, Tile, TileData};
use proptest::prelude::*;

fn dense(seed: u64, tag: usize, r: usize, c: usize) -> DenseTile {
    gen::dense_uniform_tile(seed, tag, 0, r, c, -1.0, 1.0)
}

fn bits(t: &DenseTile) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A tile's every bit: payload kind, shape and contents.
fn tile_bits(t: &Tile) -> (usize, usize, Vec<u64>) {
    let mut out = vec![t.rows() as u64, t.cols() as u64];
    let kind = match t.payload() {
        TileData::Dense(d) => {
            out.extend(bits(d));
            0
        }
        TileData::Sparse(s) => {
            let (row_ptr, col_idx, values) = s.raw_parts();
            out.extend(row_ptr.iter().chain(col_idx).map(|&v| v as u64));
            out.extend(values.iter().map(|v| v.to_bits()));
            1
        }
        TileData::Phantom { nnz } => {
            out.push(*nnz);
            2
        }
    };
    (kind, out.len(), out)
}

fn work_bits(w: Work) -> [u64; 3] {
    [
        w.flops.to_bits(),
        w.bytes_in.to_bits(),
        w.bytes_out.to_bits(),
    ]
}

/// A `rows × cols` tile of payload kind `kind` (0 dense, 1 sparse,
/// 2 phantom).
fn tile_of(kind: u8, seed: u64, tag: usize, rows: usize, cols: usize) -> Tile {
    match kind {
        0 => Tile::dense(dense(seed, tag, rows, cols)),
        1 => Tile::sparse(gen::sparse_uniform_tile(seed, tag, 0, rows, cols, 0.3)),
        _ => Tile::phantom(rows, cols, (seed % (rows * cols + 1) as u64).max(1)),
    }
}

fn assert_close(a: &[f64], b: &[f64], tol: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert!((x - y).abs() <= tol, "{x} vs {y} (tol {tol})");
    }
    Ok(())
}

proptest! {
    /// Packed GEMM vs the naive reference over shapes straddling the
    /// MR=4 / NR=8 micro-tile and MC=64 macro-block boundaries (the KC
    /// boundary is covered by the fixed-shape test below).
    #[test]
    fn packed_gemm_matches_reference(
        m in 1usize..70, l in 1usize..70, n in 1usize..70, seed in any::<u64>()
    ) {
        let a = dense(seed, 1, m, l);
        let b = dense(seed, 2, l, n);
        let mut c = DenseTile::from_fn(m, n, |i, j| (i * 3 + j) as f64 * 0.01);
        let mut expect: Vec<f64> = c.data().to_vec();
        let prod = reference::matmul(a.data(), b.data(), m, l, n);
        for (e, p) in expect.iter_mut().zip(prod.iter()) {
            *e += *p;
        }
        DenseTile::gemm_acc_packed(&mut c, &a, &b).unwrap();
        assert_close(c.data(), &expect, 1e-9 * l.max(1) as f64)?;
    }

    /// Optimized SpMM is bitwise-identical to the reference kernel.
    #[test]
    fn spmm_bitwise_matches_reference(
        m in 1usize..40, l in 1usize..40, n in 1usize..40,
        seed in any::<u64>(), density in 0.0f64..0.8
    ) {
        let s = gen::sparse_uniform_tile(seed, 3, 0, m, l, density);
        let b = dense(seed, 4, l, n);
        let init = DenseTile::from_fn(m, n, |i, j| ((i + 7 * j) as f64).sin());
        let mut fast = init.clone();
        let mut slow = init;
        s.spmm_acc(&mut fast, &b).unwrap();
        s.spmm_acc_reference(&mut slow, &b).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Optimized dense × sparse is bitwise-identical to the reference
    /// kernel (including the 4-row remainder).
    #[test]
    fn gemm_ds_bitwise_matches_reference(
        m in 1usize..40, l in 1usize..40, n in 1usize..40,
        seed in any::<u64>(), density in 0.0f64..0.8
    ) {
        let s = gen::sparse_uniform_tile(seed, 5, 0, l, n, density);
        let a = dense(seed, 6, m, l);
        let init = DenseTile::from_fn(m, n, |i, j| ((3 * i + j) as f64).cos());
        let mut fast = init.clone();
        let mut slow = init;
        s.gemm_ds_acc(&mut fast, &a).unwrap();
        s.gemm_ds_acc_reference(&mut slow, &a).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Intra-kernel threading never changes a single bit: threads split
    /// the output rows into disjoint panels, each element keeps its
    /// serial summation order.
    #[test]
    fn packed_gemm_bitwise_at_any_thread_count(
        m in 1usize..80, l in 1usize..80, n in 1usize..80,
        seed in any::<u64>(), threads in 2usize..5
    ) {
        let a = dense(seed, 7, m, l);
        let b = dense(seed, 8, l, n);
        let init = DenseTile::from_fn(m, n, |i, j| (i ^ j) as f64 * 0.125);
        set_kernel_threads(1);
        let mut serial = init.clone();
        DenseTile::gemm_acc_packed(&mut serial, &a, &b).unwrap();
        set_kernel_threads(threads);
        let mut par = init.clone();
        DenseTile::gemm_acc_packed(&mut par, &a, &b).unwrap();
        set_kernel_threads(0);
        let mut all = init;
        DenseTile::gemm_acc_packed(&mut all, &a, &b).unwrap();
        set_kernel_threads(1);
        prop_assert_eq!(&serial, &par);
        prop_assert_eq!(&serial, &all);
    }
}

proptest! {
    /// The detected level's packed GEMM (AVX-512's 8×16 groups where the
    /// host has them) equals the AVX2+FMA clone's 4×8 tiles bitwise, over
    /// shapes straddling the 8×16 group, the 4×8 tile, `MC` = 64 and
    /// `KC` = 512.
    #[test]
    fn packed_gemm_bitwise_across_clones(
        m in 1usize..140,
        l in prop_oneof![1usize..40, 505usize..520],
        n in 1usize..40,
        seed in any::<u64>()
    ) {
        let a = dense(seed, 13, m, l);
        let b = dense(seed, 14, l, n);
        let init = DenseTile::from_fn(m, n, |i, j| (i * 5 + j) as f64 * 0.03);
        let mut detected = init.clone();
        DenseTile::gemm_acc_packed(&mut detected, &a, &b).unwrap();
        set_simd_override(Some(SimdLevel::Avx2Fma));
        let mut avx2 = init;
        DenseTile::gemm_acc_packed(&mut avx2, &a, &b).unwrap();
        set_simd_override(None);
        prop_assert_eq!(bits(&detected), bits(&avx2));
    }

    /// The transposed entry point equals packing the materialised
    /// transpose, bitwise, serial and threaded.
    #[test]
    fn transposed_entry_point_bitwise(
        m in 1usize..80, l in 1usize..80, n in 1usize..80, seed in any::<u64>()
    ) {
        let at = dense(seed, 15, l, m);
        let b = dense(seed, 16, l, n);
        let init = DenseTile::from_fn(m, n, |i, j| (i + 3 * j) as f64 * 0.07);
        let mut want = init.clone();
        DenseTile::gemm_acc_packed(&mut want, &at.transpose(), &b).unwrap();
        let mut scratch = PackScratch::default();
        for threads in [1usize, 2, 0] {
            set_kernel_threads(threads);
            let mut got = init.clone();
            DenseTile::gemm_acc_t_packed_in(&mut got, &at, &b, &mut scratch).unwrap();
            prop_assert_eq!(bits(&got), bits(&want), "threads = {}", threads);
        }
        set_kernel_threads(1);
    }

    /// The tile-level transposed multiply and its work helper equal
    /// multiplying and costing the materialised transpose, bitwise, for
    /// every payload kind on either side and dims on both sides of the
    /// packed kernel's 8 threshold.
    #[test]
    fn tile_transposed_mul_and_work_bitwise(
        m in 1usize..24, l in 1usize..24, n in 1usize..24,
        ka in 0u8..3, kb in 0u8..3, seed in any::<u64>()
    ) {
        let at = tile_of(ka, seed, 17, l, m);
        let b = tile_of(kb, seed, 18, l, n);
        let t = at.transpose();
        let want = t.mul(&b).unwrap();
        let got = at.mul_transposed_in(&b, &mut PackScratch::default()).unwrap();
        prop_assert_eq!(tile_bits(&got), tile_bits(&want));
        prop_assert_eq!(work_bits(mul_work_transposed(&at, &b)), work_bits(mul_work(&t, &b)));
    }
}

/// A transposed multiply of mismatched shapes fails like the materialised
/// one does.
#[test]
fn transposed_mul_shape_error_matches() {
    let at = Tile::dense(dense(3, 19, 12, 10));
    let b = Tile::dense(dense(3, 20, 11, 9));
    let want = at.transpose().mul(&b).unwrap_err();
    let got = at
        .mul_transposed_in(&b, &mut PackScratch::default())
        .unwrap_err();
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

/// Says which clones the cross-clone test really compared, so a green run
/// on a host without AVX-512 is not mistaken for coverage of the 8×16
/// group.
#[test]
fn cross_clone_coverage_is_reported() {
    let detected = detected_simd_level();
    if detected == SimdLevel::Avx512 {
        eprintln!("kernel conformance: compared avx512 (8x16 groups) with avx2+fma (4x8 tiles)");
    } else {
        eprintln!(
            "kernel conformance: no AVX-512 on this host, so the cross-clone test compared {} with itself",
            detected.min(SimdLevel::Avx2Fma).name()
        );
    }
}

/// Shapes straddling the KC=512 rank-slice boundary (and crossing it
/// twice at 1025), checked against the streaming kernel.
#[test]
fn packed_gemm_across_kc_boundary() {
    for (m, l, n) in [(9, 511, 13), (8, 512, 16), (11, 513, 9), (6, 1025, 10)] {
        let a = dense(42, 9, m, l);
        let b = dense(42, 10, l, n);
        let mut packed = DenseTile::zeros(m, n);
        let mut stream = DenseTile::zeros(m, n);
        DenseTile::gemm_acc_packed(&mut packed, &a, &b).unwrap();
        DenseTile::gemm_acc_streaming(&mut stream, &a, &b).unwrap();
        for (x, y) in packed.data().iter().zip(stream.data().iter()) {
            assert!(
                (x - y).abs() <= 1e-9 * l as f64,
                "kc boundary ({m},{l},{n}): {x} vs {y}"
            );
        }
    }
}

/// A threaded multiply large enough to actually engage the row-panel
/// split (the proptest shapes above stay under the parallel threshold),
/// checked bitwise against serial.
#[test]
fn threaded_large_multiply_is_bitwise() {
    let n = 320; // 2·320³ flops clears the 2·256³ parallel threshold
    let a = dense(5, 11, n, n);
    let b = dense(5, 12, n, n);
    set_kernel_threads(1);
    let mut serial = DenseTile::zeros(n, n);
    DenseTile::gemm_acc_packed(&mut serial, &a, &b).unwrap();
    for threads in [2usize, 3, 0] {
        set_kernel_threads(threads);
        let mut par = DenseTile::zeros(n, n);
        DenseTile::gemm_acc_packed(&mut par, &a, &b).unwrap();
        assert_eq!(serial, par, "threads={threads} diverged");
    }
    set_kernel_threads(1);
}
