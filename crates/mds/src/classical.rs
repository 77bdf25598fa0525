//! Classical (Torgerson) multidimensional scaling.
//!
//! Classical MDS double-centres the squared dissimilarity matrix into a Gram
//! matrix `B = −½ J D² J` and reads coordinates off its top eigenpairs. The
//! SMACOF solver ([`crate::smacof`]) uses this as its initial configuration,
//! which makes the iterative phase short and deterministic.

use crate::distance::DistanceMatrix;
use crate::embedding::Embedding;
use crate::linalg::{symmetric_eigen, Matrix};
use crate::MdsError;

/// Embeds a dissimilarity matrix into `dim` dimensions with classical MDS.
///
/// # Errors
///
/// Returns [`MdsError::InvalidDimension`] when `dim == 0` and propagates
/// eigensolver failures.
///
/// # Example
///
/// ```
/// use stayaway_mds::{classical::classical_mds, distance::DistanceMatrix};
///
/// # fn main() -> Result<(), stayaway_mds::MdsError> {
/// // Three collinear points at 0, 1, 3 on a line.
/// let d = DistanceMatrix::from_vectors(&[vec![0.0], vec![1.0], vec![3.0]])?;
/// let e = classical_mds(&d, 2)?;
/// // Pairwise distances are reproduced exactly for Euclidean input.
/// assert!((e.distance(0, 1) - 1.0).abs() < 1e-9);
/// assert!((e.distance(0, 2) - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn classical_mds(dissim: &DistanceMatrix, dim: usize) -> Result<Embedding, MdsError> {
    if dim == 0 {
        return Err(MdsError::InvalidDimension { requested: 0 });
    }
    let n = dissim.len();
    if n == 0 {
        return Err(MdsError::Empty);
    }
    if n == 1 {
        return Ok(Embedding::zeros(1, dim));
    }

    let eig = symmetric_eigen(&double_centred(dissim))?;
    let mut coords = vec![0.0; n * dim];
    for k in 0..dim.min(n) {
        let lambda = eig.eigenvalues[k];
        if lambda <= 0.0 {
            // Remaining axes carry no positive variance; leave them at zero.
            break;
        }
        let scale = lambda.sqrt();
        for i in 0..n {
            coords[i * dim + k] = eig.eigenvectors[(i, k)] * scale;
        }
    }
    Embedding::from_coords(dim, coords)
}

/// Fraction of total positive "variance" captured by the first `dim`
/// eigenvalues of the double-centred matrix — a goodness-of-fit indicator
/// analogous to explained variance in PCA.
///
/// Returns 1.0 when the matrix is trivially embeddable (≤ 1 point).
///
/// # Errors
///
/// Propagates eigensolver failures.
pub fn explained_fraction(dissim: &DistanceMatrix, dim: usize) -> Result<f64, MdsError> {
    let n = dissim.len();
    if n <= 1 {
        return Ok(1.0);
    }
    let eig = symmetric_eigen(&double_centred(dissim))?;
    let positive: f64 = eig.eigenvalues.iter().filter(|&&v| v > 0.0).sum();
    if positive == 0.0 {
        return Ok(1.0);
    }
    let captured: f64 = eig.eigenvalues.iter().take(dim).filter(|&&v| v > 0.0).sum();
    Ok(captured / positive)
}

/// The Gram matrix `B = −½ J D² J` with `J = I − 11ᵀ/n`, computed
/// directly: `b_ij = −½ (d_ij² − row_i² − col_j² + grand²)`.
fn double_centred(dissim: &DistanceMatrix) -> Matrix {
    let n = dissim.len();
    let mut sq = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let d = dissim.get(i, j);
            sq[(i, j)] = d * d;
        }
    }
    let mut row_means = vec![0.0; n];
    let mut grand = 0.0;
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..n {
            s += sq[(i, j)];
        }
        row_means[i] = s / n as f64;
        grand += s;
    }
    grand /= (n * n) as f64;

    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = -0.5 * (sq[(i, j)] - row_means[i] - row_means[j] + grand);
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planar_configuration_exactly() {
        // A 3-4-5 right triangle is exactly embeddable in 2-D.
        let pts = vec![vec![0.0, 0.0], vec![3.0, 0.0], vec![0.0, 4.0]];
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let e = classical_mds(&d, 2).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (e.distance(i, j) - d.get(i, j)).abs() < 1e-9,
                    "pair ({i},{j})"
                );
            }
        }
        assert!(e.stress(&d).unwrap() < 1e-9);
    }

    #[test]
    fn single_point_embeds_at_origin() {
        let d = DistanceMatrix::from_vectors(&[vec![5.0, 5.0]]).unwrap();
        let e = classical_mds(&d, 2).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.point(0), &[0.0, 0.0]);
    }

    #[test]
    fn preserves_relative_distances_from_high_dimensions() {
        // Two tight clusters far apart in 6-D must stay separated in 2-D.
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push(vec![0.01 * i as f64; 6]);
        }
        for i in 0..4 {
            let mut v = vec![5.0; 6];
            v[0] += 0.01 * i as f64;
            pts.push(v);
        }
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let e = classical_mds(&d, 2).unwrap();
        // Within-cluster distances stay small, across-cluster stay large.
        let within = e.distance(0, 3);
        let across = e.distance(0, 4);
        assert!(across > 10.0 * within);
    }

    #[test]
    fn rejects_zero_dimension() {
        let d = DistanceMatrix::from_vectors(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(matches!(
            classical_mds(&d, 0),
            Err(MdsError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn explained_fraction_is_one_for_planar_data() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let f = explained_fraction(&d, 2).unwrap();
        assert!(f > 0.999, "planar data should be fully captured, got {f}");
    }

    #[test]
    fn explained_fraction_decreases_with_fewer_dims() {
        // A 3-simplex (regular tetrahedron) needs 3 dimensions.
        let d = crate::distance::tests::matrix(4, |_, _| 1.0);
        let f2 = explained_fraction(&d, 2).unwrap();
        let f3 = explained_fraction(&d, 3).unwrap();
        assert!(f2 < f3);
        assert!(f3 > 0.999);
    }
}
