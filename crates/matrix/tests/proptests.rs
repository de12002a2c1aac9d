//! Property-based tests for the tile algebra invariants.

use cumulon_matrix::gen;
use cumulon_matrix::reference;
use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::{CsrTile, DenseTile, LocalMatrix, Tile};
use proptest::prelude::*;

/// Strategy: small dims plus a seed, used to generate deterministic data.
fn dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..24, 1usize..24, 1usize..24, any::<u64>())
}

fn dense(seed: u64, tag: usize, r: usize, c: usize) -> DenseTile {
    gen::dense_uniform_tile(seed, tag, 0, r, c, -1.0, 1.0)
}

fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #[test]
    fn tiled_matmul_matches_reference((m, l, n, seed) in dims(), tile in 1usize..9) {
        let a_flat: Vec<f64> = dense(seed, 1, m, l).into_vec();
        let b_flat: Vec<f64> = dense(seed, 2, l, n).into_vec();
        let a = LocalMatrix::from_dense(m, l, tile, &a_flat);
        let b = LocalMatrix::from_dense(l, n, tile, &b_flat);
        let c = a.matmul(&b).unwrap();
        let expect = reference::matmul(&a_flat, &b_flat, m, l, n);
        prop_assert!(approx_eq(&c.to_dense_vec().unwrap(), &expect, 1e-9 * l as f64));
    }

    #[test]
    fn transpose_of_product((m, l, n, seed) in dims()) {
        // (A B)' == B' A'
        let a = Tile::dense(dense(seed, 1, m, l));
        let b = Tile::dense(dense(seed, 2, l, n));
        let lhs = a.mul(&b).unwrap().transpose();
        let rhs = b.transpose().mul(&a.transpose()).unwrap();
        prop_assert!(approx_eq(
            lhs.to_dense().unwrap().data(),
            rhs.to_dense().unwrap().data(),
            1e-9 * l as f64
        ));
    }

    #[test]
    fn sparse_dense_product_agree((m, l, n, seed) in dims(), density in 0.0f64..0.6) {
        let sp = gen::sparse_uniform_tile(seed, 3, 0, m, l, density);
        let b = dense(seed, 4, l, n);
        let via_sparse = Tile::sparse(sp.clone()).mul(&Tile::dense(b.clone())).unwrap();
        let via_dense = Tile::dense(sp.to_dense()).mul(&Tile::dense(b)).unwrap();
        prop_assert!(approx_eq(
            via_sparse.to_dense().unwrap().data(),
            via_dense.to_dense().unwrap().data(),
            1e-9 * l as f64
        ));
    }

    #[test]
    fn spgemm_agrees_with_dense((m, l, n, seed) in dims(), d1 in 0.0f64..0.5, d2 in 0.0f64..0.5) {
        let a = gen::sparse_uniform_tile(seed, 5, 0, m, l, d1);
        let b = gen::sparse_uniform_tile(seed, 6, 0, l, n, d2);
        let sp = a.spgemm(&b).unwrap();
        let dn = DenseTile::matmul(&a.to_dense(), &b.to_dense()).unwrap();
        prop_assert!(approx_eq(sp.to_dense().data(), dn.data(), 1e-9 * l as f64));
    }

    #[test]
    fn csr_dense_roundtrip((m, _l, n, seed) in dims(), density in 0.0f64..1.0) {
        let sp = gen::sparse_uniform_tile(seed, 7, 0, m, n, density);
        prop_assert_eq!(CsrTile::from_dense(&sp.to_dense()), sp);
    }

    #[test]
    fn serialization_roundtrip((m, _l, n, seed) in dims(), density in 0.0f64..1.0) {
        let tiles = [
            Tile::dense(dense(seed, 8, m, n)),
            Tile::sparse(gen::sparse_uniform_tile(seed, 9, 0, m, n, density)),
            Tile::phantom(m, n, (m * n) as u64 / 2),
        ];
        for t in tiles {
            let encoded = cumulon_matrix::serialize::encode_tile(&t);
            // The DFS charges handle-plane tiles this length without
            // encoding them; it must be the length a byte write stores.
            prop_assert_eq!(cumulon_matrix::serialize::encoded_len(&t), encoded.len() as u64);
            let decoded = cumulon_matrix::serialize::decode_tile(encoded).unwrap();
            prop_assert_eq!(decoded, t);
        }
    }

    #[test]
    fn elementwise_matches_reference((m, _l, n, seed) in dims()) {
        let a_flat = dense(seed, 10, m, n).into_vec();
        let b_flat = dense(seed, 11, m, n).into_vec();
        let a = Tile::dense(DenseTile::from_vec(m, n, a_flat.clone()));
        let b = Tile::dense(DenseTile::from_vec(m, n, b_flat.clone()));
        let cases: [(ElemOp, Vec<f64>); 4] = [
            (ElemOp::Add, reference::add(&a_flat, &b_flat)),
            (ElemOp::Sub, reference::sub(&a_flat, &b_flat)),
            (ElemOp::Mul, reference::elem_mul(&a_flat, &b_flat)),
            (ElemOp::Div, reference::elem_div(&a_flat, &b_flat)),
        ];
        for (op, expect) in cases {
            let got = a.elementwise(&b, op).unwrap();
            prop_assert!(approx_eq(got.to_dense().unwrap().data(), &expect, 1e-12));
        }
    }

    #[test]
    fn matmul_distributes_over_add((m, l, n, seed) in dims()) {
        // A(B + C) == AB + AC
        let a = Tile::dense(dense(seed, 12, m, l));
        let b = Tile::dense(dense(seed, 13, l, n));
        let c = Tile::dense(dense(seed, 14, l, n));
        let lhs = a.mul(&b.elementwise(&c, ElemOp::Add).unwrap()).unwrap();
        let mut rhs = a.mul(&b).unwrap();
        rhs.add_assign(&a.mul(&c).unwrap()).unwrap();
        prop_assert!(approx_eq(
            lhs.to_dense().unwrap().data(),
            rhs.to_dense().unwrap().data(),
            1e-9 * l as f64
        ));
    }

    #[test]
    fn phantom_mul_shape_agrees((m, l, n, _seed) in dims()) {
        let a = Tile::phantom_dense(m, l);
        let b = Tile::phantom_dense(l, n);
        let c = a.mul(&b).unwrap();
        prop_assert_eq!((c.rows(), c.cols()), (m, n));
        prop_assert_eq!(c.nnz(), (m * n) as u64);
    }

    #[test]
    fn local_transpose_involution((m, _l, n, seed) in dims(), tile in 1usize..9) {
        let flat = dense(seed, 15, m, n).into_vec();
        let a = LocalMatrix::from_dense(m, n, tile, &flat);
        let tt = a.transpose().transpose();
        prop_assert_eq!(tt.to_dense_vec().unwrap(), flat);
    }

    #[test]
    fn sparse_add_commutes((m, _l, n, seed) in dims(), d1 in 0.0f64..0.5, d2 in 0.0f64..0.5) {
        let a = gen::sparse_uniform_tile(seed, 16, 0, m, n, d1);
        let b = gen::sparse_uniform_tile(seed, 17, 0, m, n, d2);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }
}
