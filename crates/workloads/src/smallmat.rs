//! Driver-side dense kernels for small matrices (`k×k`, `d×d`): the
//! factorisations a Cumulon driver performs locally after the cluster has
//! crunched the big products.

// Triangular solves and elimination read x[k] while writing x[i]; index
// loops state the recurrences the way the math is written.
#![allow(clippy::needless_range_loop)]

#[cfg(test)]
use cumulon_core::error::{CoreError, Result};

/// A small column-count dense matrix, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallMat {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl SmallMat {
    /// Creates from row-major data.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        SmallMat { rows, cols, data }
    }

    /// Zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        SmallMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Element accessor.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[cfg(test)]
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Product `self × other`.
    pub fn matmul(&self, other: &SmallMat) -> SmallMat {
        assert_eq!(self.cols, other.rows);
        let mut out = SmallMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> SmallMat {
        let mut out = SmallMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Maximum absolute difference to another matrix.
    #[cfg(test)]
    pub(crate) fn max_abs_diff(&self, other: &SmallMat) -> f64 {
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Cholesky factorisation of a symmetric positive-definite matrix:
/// returns upper-triangular `R` with `A = Rᵀ R`.
#[cfg(test)]
pub(crate) fn cholesky(a: &SmallMat) -> Result<SmallMat> {
    let n = a.rows;
    if a.cols != n {
        return Err(CoreError::Invariant(
            "cholesky needs a square matrix".into(),
        ));
    }
    let mut r = SmallMat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let mut sum = a.get(i, j);
            for k in 0..i {
                sum -= r.get(k, i) * r.get(k, j);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CoreError::Invariant(format!(
                        "matrix not positive definite at pivot {i} (value {sum})"
                    )));
                }
                r.set(i, j, sum.sqrt());
            } else {
                r.set(i, j, sum / r.get(i, i));
            }
        }
    }
    Ok(r)
}

/// Solves `Rᵀ x = b` then `R y = x` (i.e. `A y = b` given `A = RᵀR`).
#[cfg(test)]
pub(crate) fn cholesky_solve(r: &SmallMat, b: &[f64]) -> Vec<f64> {
    let n = r.rows;
    debug_assert_eq!(b.len(), n);
    // Forward: Rᵀ x = b (Rᵀ is lower triangular).
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= r.get(k, i) * x[k];
        }
        x[i] = sum / r.get(i, i);
    }
    // Backward: R y = x.
    let mut y = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            sum -= r.get(i, k) * y[k];
        }
        y[i] = sum / r.get(i, i);
    }
    y
}

/// Solves the upper-triangular system `R x = b`.
#[cfg(test)]
pub(crate) fn solve_upper(r: &SmallMat, b: &[f64]) -> Vec<f64> {
    let n = r.rows;
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= r.get(i, k) * x[k];
        }
        x[i] = sum / r.get(i, i);
    }
    x
}

/// Inverse of an upper-triangular matrix.
#[cfg(test)]
pub(crate) fn invert_upper(r: &SmallMat) -> SmallMat {
    let n = r.rows;
    let mut inv = SmallMat::zeros(n, n);
    for col in 0..n {
        let mut e = vec![0.0; n];
        e[col] = 1.0;
        let x = solve_upper(r, &e);
        for (row, v) in x.into_iter().enumerate() {
            inv.set(row, col, v);
        }
    }
    inv
}

/// Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted
/// descending. Robust and dependency-free for the small matrices we need.
#[cfg(test)]
pub(crate) fn jacobi_eigenvalues(a: &SmallMat, sweeps: usize) -> Result<Vec<f64>> {
    let n = a.rows;
    if a.cols != n {
        return Err(CoreError::Invariant("jacobi needs a square matrix".into()));
    }
    let mut m = a.clone();
    for _ in 0..sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += m.get(p, q).abs();
            }
        }
        if off < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/cols p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    eig.sort_by(|a, b| b.partial_cmp(a).expect("eigenvalues are finite"));
    Ok(eig)
}

/// Solves a general square linear system by Gaussian elimination with
/// partial pivoting.
#[cfg(test)]
pub(crate) fn solve_linear(a: &SmallMat, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows;
    if a.cols != n || b.len() != n {
        return Err(CoreError::Invariant(
            "solve_linear needs square A and matching b".into(),
        ));
    }
    let mut aug: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut row: Vec<f64> = (0..n).map(|j| a.get(i, j)).collect();
            row.push(b[i]);
            row
        })
        .collect();
    for col in 0..n {
        let (pivot, max) = (col..n)
            .map(|r| (r, aug[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .expect("non-empty");
        if max < 1e-12 {
            return Err(CoreError::Invariant(format!(
                "singular system at column {col}"
            )));
        }
        aug.swap(col, pivot);
        for row in 0..n {
            if row == col {
                continue;
            }
            let f = aug[row][col] / aug[col][col];
            for k in col..=n {
                aug[row][k] -= f * aug[col][k];
            }
        }
    }
    Ok((0..n).map(|i| aug[i][n] / aug[i][i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> SmallMat {
        // A = BᵀB + n·I is SPD for any B.
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let b = SmallMat::new(n, n, (0..n * n).map(|_| next()).collect());
        let mut a = b.transpose().matmul(&b);
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64);
        }
        a
    }

    #[test]
    fn matmul_and_transpose() {
        let a = SmallMat::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = SmallMat::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(a.transpose().transpose(), a);
        let i = SmallMat::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(5, 7);
        let r = cholesky(&a).unwrap();
        let rt_r = r.transpose().matmul(&r);
        assert!(rt_r.max_abs_diff(&a) < 1e-9);
        // Upper triangular: below-diagonal entries are zero.
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = SmallMat::new(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = spd(4, 9);
        let x_true = [1.0, -2.0, 0.5, 3.0];
        let b: Vec<f64> = (0..4)
            .map(|i| (0..4).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let r = cholesky(&a).unwrap();
        let x = cholesky_solve(&r, &b);
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn upper_solve_and_invert() {
        let r = SmallMat::new(3, 3, vec![2.0, 1.0, 0.5, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let x = solve_upper(&r, &[1.0, 2.0, 3.0]);
        // Check R x = b.
        for i in 0..3 {
            let lhs: f64 = (0..3).map(|j| r.get(i, j) * x[j]).sum();
            assert!((lhs - [1.0, 2.0, 3.0][i]).abs() < 1e-12);
        }
        let inv = invert_upper(&r);
        let prod = r.matmul(&inv);
        assert!(prod.max_abs_diff(&SmallMat::identity(3)) < 1e-12);
    }

    #[test]
    fn jacobi_known_eigenvalues() {
        // diag(5, 2, -1) rotated is still {5, 2, -1}; test on the diagonal
        // matrix itself and on an SPD matrix vs. its trace/determinant.
        let d = SmallMat::new(3, 3, vec![5.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -1.0]);
        let eig = jacobi_eigenvalues(&d, 30).unwrap();
        assert_eq!(eig, vec![5.0, 2.0, -1.0]);

        let a = spd(4, 3);
        let eig = jacobi_eigenvalues(&a, 50).unwrap();
        let trace: f64 = (0..4).map(|i| a.get(i, i)).sum();
        assert!(
            (eig.iter().sum::<f64>() - trace).abs() < 1e-9,
            "trace preserved"
        );
        assert!(eig.iter().all(|&e| e > 0.0), "SPD has positive eigenvalues");
    }

    #[test]
    fn jacobi_2x2_exact() {
        let a = SmallMat::new(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = jacobi_eigenvalues(&a, 20).unwrap();
        assert!((eig[0] - 3.0).abs() < 1e-12);
        assert!((eig[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_general() {
        let a = SmallMat::new(3, 3, vec![0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 3.0, 1.0, 2.0]);
        let x_true = [2.0, -1.0, 3.0];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = solve_linear(&a, &b).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_linear_singular() {
        let a = SmallMat::new(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve_linear(&a, &[1.0, 2.0]).is_err());
    }
}
