//! Flop and byte accounting shared by the execution engine (to charge
//! simulated time for real work) and the cost models in `cumulon-core`
//! (to predict it).

use crate::tile::Tile;

/// Work performed by one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Floating-point operations (multiply-adds count as 2).
    pub flops: f64,
    /// Bytes of input read by the kernel.
    pub bytes_in: f64,
    /// Bytes of output produced by the kernel.
    pub bytes_out: f64,
}

impl Work {
    /// Component-wise sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Work) -> Work {
        Work {
            flops: self.flops + other.flops,
            bytes_in: self.bytes_in + other.bytes_in,
            bytes_out: self.bytes_out + other.bytes_out,
        }
    }
}

impl std::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::default(), Work::add)
    }
}

/// Work of a tile product `a × b`.
///
/// Dense×dense costs `2·m·l·n`; products with sparse operands scale with
/// the realised nnz: each stored entry of the sparse side touches a full
/// row/column of the dense side.
pub fn mul_work(a: &Tile, b: &Tile) -> Work {
    product_work(a.rows(), a.cols(), a.stored_bytes(), a, b)
}

/// Work of `aᵀ × b` — what [`Tile::mul_transposed_in`] computes — charged
/// from the logical operand: bitwise `mul_work(&a.transpose(), b)` for
/// dense, sparse and phantom tiles, without building the transpose
/// (which keeps the payload kind, nnz and density).
pub fn mul_work_transposed(a: &Tile, b: &Tile) -> Work {
    product_work(a.cols(), a.rows(), a.transposed_stored_bytes(), a, b)
}

/// [`mul_work`] of an `a_rows × a_cols` left operand stored in
/// `a_bytes`, whose kind, nnz and density are `a`'s.
fn product_work(a_rows: usize, a_cols: usize, a_bytes: u64, a: &Tile, b: &Tile) -> Work {
    let m = a_rows as f64;
    let l = a_cols as f64;
    let n = b.cols() as f64;
    let bytes_in = (a_bytes + b.stored_bytes()) as f64;
    let flops = match (
        a.is_sparse() || a.is_phantom(),
        b.is_sparse() || b.is_phantom(),
    ) {
        // Fully dense operands: classic GEMM count.
        (false, false) => 2.0 * m * l * n,
        _ => {
            // nnz-proportional: entry (i,k) of a combines with row k of b
            // (density-weighted) and vice versa; take the dominating side.
            let a_eff = a.nnz() as f64 * 2.0 * n * b.density().clamp(1e-12, 1.0);
            let b_eff = b.nnz() as f64 * 2.0 * m * a.density().clamp(1e-12, 1.0);
            let dense_bound = 2.0 * m * l * n;
            a_eff.max(b_eff).min(dense_bound)
        }
    };
    // Output bytes are the product tile's storage; callers that accumulate
    // in memory should only charge the final write.
    let bytes_out = (a_rows * b.cols() * 8) as f64;
    Work {
        flops,
        bytes_in,
        bytes_out,
    }
}

/// Work of an element-wise combination of two same-shape tiles.
pub fn elementwise_work(a: &Tile, b: &Tile) -> Work {
    let touched = if a.is_sparse() && b.is_sparse() {
        (a.nnz() + b.nnz()) as f64
    } else {
        (a.rows() * a.cols()) as f64
    };
    Work {
        flops: touched,
        bytes_in: (a.stored_bytes() + b.stored_bytes()) as f64,
        bytes_out: a.stored_bytes() as f64,
    }
}

/// Work of adding `src` into an accumulator of the same shape.
pub fn add_work(acc: &Tile, src: &Tile) -> Work {
    Work {
        flops: src.nnz() as f64,
        bytes_in: src.stored_bytes() as f64,
        bytes_out: acc.stored_bytes() as f64,
    }
}

/// Work of transposing a tile.
pub fn transpose_work(t: &Tile) -> Work {
    let b = t.stored_bytes() as f64;
    Work {
        flops: 0.0,
        bytes_in: b,
        bytes_out: b,
    }
}

/// Work of a unary scalar map over a tile.
pub fn map_work(t: &Tile) -> Work {
    let touched = if t.is_sparse() {
        t.nnz() as f64
    } else {
        (t.rows() * t.cols()) as f64
    };
    let b = t.stored_bytes() as f64;
    Work {
        flops: touched,
        bytes_in: b,
        bytes_out: b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn dense_mul_work_is_2mln() {
        let a = Tile::zeros(10, 20);
        let b = Tile::zeros(20, 30);
        let w = mul_work(&a, &b);
        assert_eq!(w.flops, 2.0 * 10.0 * 20.0 * 30.0);
        assert_eq!(w.bytes_out, 10.0 * 30.0 * 8.0);
    }

    #[test]
    fn sparse_mul_work_scales_with_nnz() {
        let dense_a = Tile::dense(gen::dense_uniform_tile(1, 0, 0, 100, 100, 0.5, 1.0));
        let sparse_a = Tile::sparse(gen::sparse_uniform_tile(1, 0, 0, 100, 100, 0.01));
        let b = Tile::dense(gen::dense_uniform_tile(2, 0, 0, 100, 100, 0.5, 1.0));
        let dense_w = mul_work(&dense_a, &b);
        let sparse_w = mul_work(&sparse_a, &b);
        assert!(
            sparse_w.flops < dense_w.flops / 20.0,
            "sparse {} vs dense {}",
            sparse_w.flops,
            dense_w.flops
        );
    }

    #[test]
    fn sparse_work_never_exceeds_dense_bound() {
        let a = Tile::phantom(50, 50, 50 * 50);
        let b = Tile::phantom(50, 50, 50 * 50);
        let w = mul_work(&a, &b);
        assert!(w.flops <= 2.0 * 50.0f64.powi(3) + 1e-6);
    }

    #[test]
    fn elementwise_sparse_cheaper() {
        let s = Tile::sparse(gen::sparse_uniform_tile(3, 0, 0, 100, 100, 0.01));
        let d = Tile::zeros(100, 100);
        let ws = elementwise_work(&s, &s);
        let wd = elementwise_work(&d, &d);
        assert!(ws.flops < wd.flops / 10.0);
    }

    #[test]
    fn work_sum() {
        let w1 = Work {
            flops: 1.0,
            bytes_in: 2.0,
            bytes_out: 3.0,
        };
        let w2 = Work {
            flops: 10.0,
            bytes_in: 20.0,
            bytes_out: 30.0,
        };
        let s: Work = [w1, w2].into_iter().sum();
        assert_eq!(
            s,
            Work {
                flops: 11.0,
                bytes_in: 22.0,
                bytes_out: 33.0
            }
        );
    }

    #[test]
    fn transpose_and_map_work() {
        let t = Tile::zeros(10, 10);
        assert_eq!(transpose_work(&t).flops, 0.0);
        assert_eq!(map_work(&t).flops, 100.0);
        assert_eq!(add_work(&t, &t).flops, 0.0); // zeros have no nnz
    }
}
