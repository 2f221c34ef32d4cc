//! Dense linear algebra for substitution models.
//!
//! Time-reversible rate matrices are diagonalized once per model-parameter
//! change; transition matrices P(t) = exp(Qt) are then assembled per branch
//! length. Reversibility lets us symmetrize Q with the stationary frequencies
//! and use a plain symmetric eigensolver (cyclic Jacobi — simple, numerically
//! robust, and fast enough for the 61×61 codon matrix).

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// n×n zero matrix.
    pub fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// n×n identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The entries, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n);
        let n = self.n;
        let mut out = Matrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.n, |i, j| self[(j, i)])
    }

    /// Maximum absolute off-diagonal element.
    fn max_offdiag(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

/// Eigendecomposition of a symmetric matrix: `a = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues (unsorted).
    pub values: Vec<f64>,
    /// Eigenvectors as columns of `vectors`.
    pub vectors: Matrix,
}

/// Cyclic Jacobi eigensolver for symmetric matrices.
///
/// Iterates sweeps of plane rotations until every off-diagonal element is
/// below `1e-12 × scale`. Converges quadratically; a 61×61 codon matrix
/// needs a handful of sweeps.
///
/// # Panics
/// Panics if the matrix is not symmetric to 1e-8 relative tolerance, or if
/// convergence fails (pathological input).
pub fn sym_eigen(a: &Matrix) -> SymEigen {
    let n = a.n();
    let scale = (0..n).map(|i| a[(i, i)].abs()).fold(1.0f64, f64::max);
    for i in 0..n {
        for j in (i + 1)..n {
            assert!(
                (a[(i, j)] - a[(j, i)]).abs() <= 1e-8 * scale.max(1.0),
                "matrix not symmetric at ({i},{j})"
            );
        }
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-12 * scale.max(1.0);
    for _sweep in 0..100 {
        if m.max_offdiag() <= tol {
            return SymEigen {
                values: (0..n).map(|i| m[(i, i)]).collect(),
                vectors: v,
            };
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-3 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation to rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    panic!("Jacobi eigensolver failed to converge");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymEigen) -> Matrix {
        let n = e.vectors.n();
        let mut lam = Matrix::zeros(n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        e.vectors.matmul(&lam).matmul(&e.vectors.transpose())
    }

    #[test]
    fn identity_eigen() {
        let e = sym_eigen(&Matrix::identity(4));
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 2.0;
        let mut vals = sym_eigen(&a).values;
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 10;
        let a = Matrix::from_fn(n, |i, j| {
            let (x, y) = (i.min(j) as f64, i.max(j) as f64);
            ((x * 7.3 + y * 1.9).sin() + (x - y).cos()) * 0.5
        });
        let e = sym_eigen(&a);
        let r = reconstruct(&e);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (r[(i, j)] - a[(i, j)]).abs() < 1e-8,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 8;
        let a = Matrix::from_fn(n, |i, j| {
            let (x, y) = (i.min(j) as f64, i.max(j) as f64);
            (x + 2.0 * y).cos()
        });
        let e = sym_eigen(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        for i in 0..n {
            for j in 0..n {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expected).abs() < 1e-8);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_rejected() {
        let mut a = Matrix::zeros(2);
        a[(0, 1)] = 1.0;
        let _ = sym_eigen(&a);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(5, |i, j| (i * 5 + j) as f64);
        let i5 = Matrix::identity(5);
        assert_eq!(a.matmul(&i5), a);
        assert_eq!(i5.matmul(&a), a);
    }
}
