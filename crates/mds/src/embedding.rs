//! Low-dimensional point configurations produced by MDS/PCA.

use crate::distance::DistanceMatrix;
use crate::MdsError;

/// A configuration of `n` points in a `dim`-dimensional space.
///
/// This is the output type of the classical and SMACOF solvers; for
/// Stay-Away `dim` is 2 (the paper's mapped state space), but higher target
/// dimensions are supported for the scalability escape hatch described in §5
/// of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    dim: usize,
    coords: Vec<f64>, // row-major, n × dim
}

impl Embedding {
    /// Creates an embedding from row-major coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::InvalidDimension`] when `dim == 0` and
    /// [`MdsError::DimensionMismatch`] when `coords.len()` is not a multiple
    /// of `dim`.
    pub fn from_coords(dim: usize, coords: Vec<f64>) -> Result<Self, MdsError> {
        if dim == 0 {
            return Err(MdsError::InvalidDimension { requested: 0 });
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(MdsError::DimensionMismatch {
                expected: dim,
                found: coords.len() % dim,
            });
        }
        Ok(Embedding { dim, coords })
    }

    /// Consumes the embedding, returning its row-major coordinates.
    pub(crate) fn into_coords(self) -> Vec<f64> {
        self.coords
    }

    /// The row-major coordinates, mutably — for kernels that update points
    /// in place without reshaping the configuration.
    pub(crate) fn coords_mut(&mut self) -> &mut [f64] {
        &mut self.coords
    }

    /// An embedding of `n` points at the origin of a `dim`-space.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Embedding {
            dim,
            coords: vec![0.0; n * dim],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the embedding holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of the target space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the coordinates of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows the coordinates of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn point_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Convenience accessor for 2-D embeddings: `(x, y)` of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `dim < 2`.
    pub fn xy(&self, i: usize) -> (f64, f64) {
        let p = self.point(i);
        (p[0], p[1])
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub(crate) fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.coords.extend_from_slice(point);
    }

    /// Euclidean distance between embedded points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.point(i)
            .iter()
            .zip(self.point(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Iterates over points as coordinate slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.coords.chunks_exact(self.dim)
    }

    /// The centroid of the configuration.
    pub fn centroid(&self) -> Vec<f64> {
        let n = self.len();
        let mut centroid = vec![0.0; self.dim];
        if n == 0 {
            return centroid;
        }
        for p in self.iter() {
            for (c, v) in centroid.iter_mut().zip(p) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }
        centroid
    }

    /// Normalized Kruskal stress-1 of this configuration against a target
    /// dissimilarity matrix:
    /// `sqrt( Σ (d_ij − δ_ij)² / Σ δ_ij² )`.
    ///
    /// Returns 0.0 when the matrix has no off-diagonal mass.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] if the number of points
    /// differs from the matrix size.
    pub fn stress(&self, dissim: &DistanceMatrix) -> Result<f64, MdsError> {
        let raw = self.raw_stress(dissim)?;
        let denom = dissim.sum_squares();
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok((raw / denom).sqrt())
    }

    /// Raw (unnormalized) stress: `Σ_{i<j} (d_ij − δ_ij)²` — the loss
    /// function from §2.2 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] if the number of points
    /// differs from the matrix size.
    pub fn raw_stress(&self, dissim: &DistanceMatrix) -> Result<f64, MdsError> {
        if dissim.len() != self.len() {
            return Err(MdsError::DimensionMismatch {
                expected: dissim.len(),
                found: self.len(),
            });
        }
        let mut s = 0.0;
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                let diff = self.distance(i, j) - dissim.get(i, j);
                s += diff * diff;
            }
        }
        Ok(s)
    }

    /// The per-axis coordinate ranges `(min, max)`.
    pub(crate) fn axis_ranges(&self) -> Vec<(f64, f64)> {
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); self.dim];
        for p in self.iter() {
            for (r, v) in ranges.iter_mut().zip(p) {
                r.0 = r.0.min(*v);
                r.1 = r.1.max(*v);
            }
        }
        ranges
    }

    /// Median of the per-axis coordinate extents — the paper's constant `c`
    /// in the Rayleigh violation-range radius (§3.2.2).
    ///
    /// Returns 0.0 for an empty embedding.
    pub fn median_coordinate_range(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut extents: Vec<f64> = self
            .axis_ranges()
            .into_iter()
            .map(|(lo, hi)| (hi - lo).max(0.0))
            .collect();
        extents.sort_by(f64::total_cmp);
        let n = extents.len();
        if n % 2 == 1 {
            extents[n / 2]
        } else {
            0.5 * (extents[n / 2 - 1] + extents[n / 2])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Embedding {
        Embedding::from_coords(2, vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let e = square();
        assert_eq!(e.len(), 4);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.xy(2), (1.0, 1.0));
        assert_eq!(e.distance(0, 2), 2.0_f64.sqrt());
    }

    #[test]
    fn from_coords_validates() {
        assert!(matches!(
            Embedding::from_coords(0, vec![]),
            Err(MdsError::InvalidDimension { .. })
        ));
        assert!(matches!(
            Embedding::from_coords(2, vec![1.0, 2.0, 3.0]),
            Err(MdsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn stress_zero_for_perfect_embedding() {
        let e = square();
        let d = crate::distance::tests::matrix(4, |i, j| e.distance(i, j));
        assert!(e.stress(&d).unwrap() < 1e-12);
        assert!(e.raw_stress(&d).unwrap() < 1e-12);
    }

    #[test]
    fn stress_positive_for_distorted_embedding() {
        let e = square();
        let d = crate::distance::tests::matrix(4, |i, j| 2.0 * e.distance(i, j));
        assert!(e.stress(&d).unwrap() > 0.1);
    }

    #[test]
    fn stress_checks_size() {
        let e = square();
        let d = crate::distance::tests::matrix(3, |_, _| 1.0);
        assert!(e.stress(&d).is_err());
    }

    #[test]
    fn median_coordinate_range_of_square_is_one() {
        assert!((square().median_coordinate_range() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn push_appends_points() {
        let mut e = Embedding::zeros(0, 2);
        e.push(&[1.0, 2.0]);
        e.push(&[3.0, 4.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.xy(1), (3.0, 4.0));
    }

    #[test]
    fn axis_ranges_of_square() {
        let ranges = square().axis_ranges();
        assert_eq!(ranges, vec![(0.0, 1.0), (0.0, 1.0)]);
    }
}
