//! Minimal dense linear algebra: symmetric eigendecomposition via the cyclic
//! Jacobi method, and small-matrix helpers.
//!
//! Stay-Away only ever decomposes small-to-moderate symmetric matrices (the
//! double-centred Gram matrix of the deduplicated sample set and 2×2 / k×k
//! cross-covariance matrices for Procrustes), so a from-scratch Jacobi solver
//! is both sufficient and dependency-free.

use crate::MdsError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree for matmul"
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Returns true when every entry is finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm.
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Result of a symmetric eigendecomposition: `a = V · diag(λ) · Vᵀ`.
///
/// Eigenpairs are sorted by descending eigenvalue.
#[derive(Debug, Clone)]
pub(crate) struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub(crate) eigenvalues: Vec<f64>,
    /// Eigenvectors as columns, in the same order as [`Self::eigenvalues`].
    pub(crate) eigenvectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix with the cyclic
/// Jacobi rotation method.
///
/// # Errors
///
/// Returns [`MdsError::DimensionMismatch`] for non-square input,
/// [`MdsError::NonFinite`] when the matrix contains NaN/inf, and
/// [`MdsError::NoConvergence`] if the off-diagonal mass does not vanish
/// within the sweep budget (does not happen for well-posed symmetric input).
pub(crate) fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen, MdsError> {
    if a.rows != a.cols {
        return Err(MdsError::DimensionMismatch {
            expected: a.rows,
            found: a.cols,
        });
    }
    if !a.is_finite() {
        return Err(MdsError::NonFinite {
            context: "symmetric_eigen input",
        });
    }
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    // Scale-aware convergence threshold.
    let scale = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;
    const MAX_SWEEPS: usize = 100;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= tol {
            let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
            pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
            let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let mut eigenvectors = Matrix::zeros(n, n);
            for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
                for r in 0..n {
                    eigenvectors[(r, new_col)] = v[(r, old_col)];
                }
            }
            return Ok(SymmetricEigen {
                eigenvalues,
                eigenvectors,
            });
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation J(p, q, θ) on both sides: m = Jᵀ m J.
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

    Err(MdsError::NoConvergence {
        iterations: MAX_SWEEPS,
        stress: f64::NAN,
    })
}

/// Singular value decomposition of a small matrix `a = U · diag(σ) · Vᵀ`,
/// computed via the eigendecomposition of `aᵀa` (adequate for the tiny k×k
/// cross-covariance matrices used in Procrustes alignment).
#[derive(Debug, Clone)]
pub(crate) struct Svd {
    /// Left singular vectors (columns).
    pub(crate) u: Matrix,
    /// Singular values, descending.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "the oracle the SVD unit tests check U and V against"
        )
    )]
    pub(crate) singular_values: Vec<f64>,
    /// Right singular vectors (columns).
    pub(crate) v: Matrix,
}

/// Computes the SVD of `a` (any shape, intended for small matrices).
///
/// # Errors
///
/// Propagates errors from [`symmetric_eigen`].
pub(crate) fn svd_small(a: &Matrix) -> Result<Svd, MdsError> {
    let ata = a.transpose().matmul(a);
    let eig = symmetric_eigen(&ata)?;
    let k = ata.rows();
    let mut singular_values = Vec::with_capacity(k);
    let v = eig.eigenvectors.clone();
    let mut u = Matrix::zeros(a.rows(), k);
    let av = a.matmul(&v);
    let m = a.rows();
    let sigma_max = eig
        .eigenvalues
        .first()
        .map(|e| e.max(0.0).sqrt())
        .unwrap_or(0.0);
    let sigma_tol = (1e-9 * sigma_max).max(1e-300);
    for j in 0..k {
        let sigma = eig.eigenvalues[j].max(0.0).sqrt();
        singular_values.push(sigma);
        // Columns computed as A·v/σ lose orthogonality when σ is tiny
        // relative to σ_max; re-derive their norm and fall back to basis
        // completion when degenerate.
        let norm: f64 = if sigma > sigma_tol {
            (0..m).map(|i| av[(i, j)] * av[(i, j)]).sum::<f64>().sqrt()
        } else {
            0.0
        };
        if norm > sigma_tol {
            for i in 0..m {
                u[(i, j)] = av[(i, j)] / norm;
            }
        } else {
            // Degenerate direction: complete the orthonormal basis by
            // Gram-Schmidt over canonical vectors against the columns
            // already placed (Procrustes requires U to stay orthogonal
            // even for rank-deficient input).
            'candidates: for c in 0..m {
                let mut cand = vec![0.0; m];
                cand[c] = 1.0;
                for prev in 0..j {
                    let dot: f64 = (0..m).map(|i| cand[i] * u[(i, prev)]).sum();
                    for (i, item) in cand.iter_mut().enumerate() {
                        *item -= dot * u[(i, prev)];
                    }
                }
                let norm: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-8 {
                    for i in 0..m {
                        u[(i, j)] = cand[i] / norm;
                    }
                    break 'candidates;
                }
            }
        }
    }
    Ok(Svd {
        u,
        singular_values,
        v,
    })
}

/// Determinant of a square matrix via LU elimination (partial pivoting).
///
/// # Panics
///
/// Panics if the matrix is not square.
pub(crate) fn determinant(a: &Matrix) -> f64 {
    assert_eq!(a.rows, a.cols, "determinant requires a square matrix");
    let n = a.rows;
    let mut m = a.clone();
    let mut det = 1.0;
    for col in 0..n {
        // Find pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if m[(r, col)].abs() > m[(pivot, col)].abs() {
                pivot = r;
            }
        }
        if m[(pivot, col)].abs() < 1e-300 {
            return 0.0;
        }
        if pivot != col {
            for c in 0..n {
                let tmp = m[(pivot, c)];
                m[(pivot, c)] = m[(col, c)];
                m[(col, c)] = tmp;
            }
            det = -det;
        }
        det *= m[(col, col)];
        for r in (col + 1)..n {
            let f = m[(r, col)] / m[(col, col)];
            for c in col..n {
                m[(r, c)] -= f * m[(col, c)];
            }
        }
    }
    det
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from equal-length rows.
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        Matrix {
            rows: rows.len(),
            cols: rows[0].len(),
            data: rows.concat(),
        }
    }

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn identity_has_unit_eigenvalues() {
        let eig = symmetric_eigen(&Matrix::identity(4)).unwrap();
        for ev in eig.eigenvalues {
            assert!(approx(ev, 1.0, 1e-12));
        }
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = symmetric_eigen(&m).unwrap();
        assert!(approx(eig.eigenvalues[0], 3.0, 1e-12));
        assert!(approx(eig.eigenvalues[1], 1.0, 1e-12));
    }

    #[test]
    fn eigenvectors_reconstruct_matrix() {
        let m = from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let eig = symmetric_eigen(&m).unwrap();
        // Reconstruct V · diag(λ) · Vᵀ.
        let n = 3;
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = eig.eigenvalues[i];
        }
        let recon = eig
            .eigenvectors
            .matmul(&lam)
            .matmul(&eig.eigenvectors.transpose());
        for i in 0..n {
            for j in 0..n {
                assert!(
                    approx(recon[(i, j)], m[(i, j)], 1e-10),
                    "entry ({i},{j}): {} vs {}",
                    recon[(i, j)],
                    m[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eigen_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            symmetric_eigen(&m),
            Err(MdsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn eigen_rejects_nan() {
        let mut m = Matrix::identity(2);
        m[(0, 1)] = f64::NAN;
        assert!(matches!(
            symmetric_eigen(&m),
            Err(MdsError::NonFinite { .. })
        ));
    }

    #[test]
    fn svd_of_rotation_has_unit_singular_values() {
        let theta: f64 = 0.7;
        let r = from_rows(&[
            vec![theta.cos(), -theta.sin()],
            vec![theta.sin(), theta.cos()],
        ]);
        let svd = svd_small(&r).unwrap();
        for s in svd.singular_values {
            assert!(approx(s, 1.0, 1e-10));
        }
    }

    #[test]
    fn svd_reconstructs_input() {
        let a = from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0], vec![0.0, 1.0]]);
        let svd = svd_small(&a).unwrap();
        let k = 2;
        let mut sig = Matrix::zeros(k, k);
        for i in 0..k {
            sig[(i, i)] = svd.singular_values[i];
        }
        let recon = svd.u.matmul(&sig).matmul(&svd.v.transpose());
        for i in 0..3 {
            for j in 0..2 {
                assert!(approx(recon[(i, j)], a[(i, j)], 1e-9));
            }
        }
    }

    #[test]
    fn determinant_of_known_matrices() {
        assert!(approx(determinant(&Matrix::identity(3)), 1.0, 1e-12));
        let m = from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(approx(determinant(&m), -1.0, 1e-12));
        let m = from_rows(&[vec![2.0, 0.0], vec![0.0, 5.0]]);
        assert!(approx(determinant(&m), 10.0, 1e-12));
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }
}
