//! Naive untiled reference kernels.
//!
//! These are deliberately simple O(n³)/O(n²) implementations against flat
//! row-major buffers. The test suites (including property tests) use them
//! as ground truth for the tiled kernels and for the distributed engine's
//! end-to-end results.

/// `C = A × B` for row-major buffers; `a` is `m×l`, `b` is `l×n`.
pub fn matmul(a: &[f64], b: &[f64], m: usize, l: usize, n: usize) -> Vec<f64> {
    assert_eq!(a.len(), m * l);
    assert_eq!(b.len(), l * n);
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for k in 0..l {
            let aik = a[i * l + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Transpose of an `m×n` row-major buffer.
pub fn transpose(a: &[f64], m: usize, n: usize) -> Vec<f64> {
    assert_eq!(a.len(), m * n);
    let mut t = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            t[j * m + i] = a[i * n + j];
        }
    }
    t
}

/// Element-wise `a + b`.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Element-wise `a - b`.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise `a ⊙ b`.
pub fn elem_mul(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).collect()
}

/// Element-wise `a ⊘ b` with the 0/0 → 0 convention.
pub fn elem_div(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| if *y == 0.0 { 0.0 } else { x / y })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = [1.0, 2.0, 3.0]; // 1x3
        let b = [1.0, 1.0, 1.0]; // 3x1
        assert_eq!(matmul(&a, &b, 1, 3, 1), vec![6.0]);
    }

    #[test]
    fn transpose_rect() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        assert_eq!(transpose(&a, 2, 3), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn elementwise_kernels() {
        let a = [2.0, 4.0];
        let b = [1.0, 0.0];
        assert_eq!(add(&a, &b), vec![3.0, 4.0]);
        assert_eq!(sub(&a, &b), vec![1.0, 4.0]);
        assert_eq!(elem_mul(&a, &b), vec![2.0, 0.0]);
        assert_eq!(elem_div(&a, &b), vec![2.0, 0.0]);
    }
}
