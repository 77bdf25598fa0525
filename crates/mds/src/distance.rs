//! Dissimilarity matrices over measurement vectors.

use crate::MdsError;

/// The Euclidean (L2) distance between two equal-length vectors — the
/// metric the paper maps measurements with.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length is used.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "vectors must share a dimension");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// [`euclidean`] with per-coordinate early exit: returns `None` as soon as
/// the partial accumulation proves the result exceeds `bound`.
///
/// The pruning threshold carries a small safety factor, so a candidate is
/// abandoned only when its distance provably exceeds `bound`; whenever
/// `Some(d)` is returned, `d` is bit-for-bit the value [`euclidean`] would
/// produce. Callers can therefore use this as a drop-in scan kernel
/// without changing any comparison outcome.
pub(crate) fn euclidean_pruned(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "vectors must share a dimension");
    let limit = pruning_limit(bound);
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        sum += (x - y) * (x - y);
        if sum > limit {
            return None;
        }
    }
    Some(sum.sqrt())
}

/// The squared-distance accumulation past which [`euclidean_pruned`]
/// abandons a candidate for `bound`. One part in 2^40 over-admits
/// boundary candidates rather than ever mispruning one; their exact
/// distance decides as in the full scan.
pub(crate) fn pruning_limit(bound: f64) -> f64 {
    const SLACK: f64 = 1.0 + 1e-12;
    bound * bound * SLACK
}

/// A symmetric matrix of pairwise dissimilarities with a zero diagonal.
///
/// Only the strict upper triangle is stored, grouped by column: entry
/// (i, j) with i < j lives at index `j*(j-1)/2 + i`. Column-major grouping
/// makes [`DistanceMatrix::append_point`] a contiguous push of the new
/// point's column — O(n·dim) — where a row-major layout would have to
/// splice an entry into every existing row.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    upper: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the Euclidean distance matrix of a set of vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::Empty`] for an empty input,
    /// [`MdsError::DimensionMismatch`] if the vectors have differing lengths
    /// and [`MdsError::NonFinite`] if any coordinate is NaN or infinite.
    pub fn from_vectors(vectors: &[Vec<f64>]) -> Result<Self, MdsError> {
        let first = vectors.first().ok_or(MdsError::Empty)?;
        let dim = first.len();
        for v in vectors {
            if v.len() != dim {
                return Err(MdsError::DimensionMismatch {
                    expected: dim,
                    found: v.len(),
                });
            }
            if v.iter().any(|x| !x.is_finite()) {
                return Err(MdsError::NonFinite {
                    context: "distance matrix input vector",
                });
            }
        }
        let n = vectors.len();
        // Column j of the packed triangle holds the entries (0, j) ..
        // (j-1, j) contiguously.
        let mut upper = Vec::with_capacity(n * (n - 1) / 2);
        for (j, point) in vectors.iter().enumerate().skip(1) {
            upper.extend(vectors[..j].iter().map(|v| euclidean(v, point)));
        }
        Ok(DistanceMatrix { n, upper })
    }

    /// Extends the matrix in place with one new point, given the vectors
    /// of the points already covered. Computes only the new point's column
    /// — O(n·dim) — instead of rebuilding all n(n+1)/2 entries.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] unless `existing.len()`
    /// equals [`DistanceMatrix::len`] and `point` has the common dimension,
    /// and [`MdsError::NonFinite`] if `point` has a NaN or infinite
    /// coordinate; a failed append leaves the matrix untouched.
    pub fn append_point(&mut self, existing: &[Vec<f64>], point: &[f64]) -> Result<(), MdsError> {
        if existing.len() != self.n {
            return Err(MdsError::DimensionMismatch {
                expected: self.n,
                found: existing.len(),
            });
        }
        let dim = existing.first().map_or(point.len(), Vec::len);
        if point.len() != dim {
            return Err(MdsError::DimensionMismatch {
                expected: dim,
                found: point.len(),
            });
        }
        if point.iter().any(|x| !x.is_finite()) {
            return Err(MdsError::NonFinite {
                context: "distance matrix appended point",
            });
        }
        self.upper
            .extend(existing.iter().map(|v| euclidean(v, point)));
        self.n += 1;
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true when the matrix covers zero points (never constructed so,
    /// but required for a well-behaved API).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The dissimilarity between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.upper[j * (j - 1) / 2 + i]
    }

    /// The condensed strict upper triangle, grouped by column: entry (i, j)
    /// with i < j at `j*(j-1)/2 + i`.
    pub(crate) fn condensed(&self) -> &[f64] {
        &self.upper
    }

    /// Column `j` of the triangle: the dissimilarities between point `j`
    /// and points `0..j`, contiguous.
    pub(crate) fn column(&self, j: usize) -> &[f64] {
        &self.upper[j * j.saturating_sub(1) / 2..][..j]
    }

    /// Sum of squared dissimilarities over the strict upper triangle.
    pub(crate) fn sum_squares(&self) -> f64 {
        self.upper.iter().map(|d| d * d).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A matrix of the pairwise values `get(i, j)`, `i < j`, unchecked —
    /// for tests anywhere in the crate.
    pub(crate) fn matrix(n: usize, get: impl Fn(usize, usize) -> f64) -> DistanceMatrix {
        let upper = (1..n).flat_map(|j| (0..j).map(move |i| (i, j)));
        DistanceMatrix {
            n,
            upper: upper.map(|(i, j)| get(i, j)).collect(),
        }
    }

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn distance_pruned_matches_full_distance_or_proves_excess() {
        let a = [0.1, 0.9, 0.4, 0.7];
        let b = [0.3, 0.2, 0.8, 0.1];
        let d = euclidean(&a, &b);
        // Generous bound: completes and matches exactly.
        assert_eq!(euclidean_pruned(&a, &b, d), Some(d));
        assert_eq!(euclidean_pruned(&a, &b, f64::INFINITY), Some(d));
        // Bound provably below the distance: pruned.
        assert_eq!(euclidean_pruned(&a, &b, d * 0.5), None);
        // Zero distance survives a zero bound.
        assert_eq!(euclidean_pruned(&a, &a, 0.0), Some(0.0));
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let vectors = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        assert_eq!(d.len(), 3);
        for i in 0..3 {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(d.get(i, j), d.get(j, i));
            }
        }
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert!((d.get(1, 2) - 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rejects_ragged_input() {
        let vectors = vec![vec![0.0, 0.0], vec![1.0]];
        assert!(matches!(
            DistanceMatrix::from_vectors(&vectors),
            Err(MdsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_nan_input() {
        let vectors = vec![vec![f64::NAN]];
        assert!(matches!(
            DistanceMatrix::from_vectors(&vectors),
            Err(MdsError::NonFinite { .. })
        ));
    }

    #[test]
    fn single_point_matrix() {
        let d = DistanceMatrix::from_vectors(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn append_point_matches_full_rebuild() {
        let small = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 4.0],
            vec![-1.0, 0.5],
            vec![2.0, 2.0],
        ];
        // A cloud the size of a full state map: large-n append ≡ rebuild.
        let cloud: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
            .collect();
        for (vectors, seed_len) in [(small, 3), (cloud, 290)] {
            let mut incremental = DistanceMatrix::from_vectors(&vectors[..seed_len]).unwrap();
            for m in seed_len..vectors.len() {
                incremental
                    .append_point(&vectors[..m], &vectors[m])
                    .unwrap();
                let rebuilt = DistanceMatrix::from_vectors(&vectors[..=m]).unwrap();
                assert_eq!(incremental, rebuilt, "diverged appending point {m}");
            }
            assert_eq!(incremental.len(), vectors.len());
        }
    }

    #[test]
    fn append_point_validates_input() {
        let vectors = vec![vec![0.0, 0.0], vec![1.0, 0.0]];
        let mut d = DistanceMatrix::from_vectors(&vectors).unwrap();
        assert!(matches!(
            d.append_point(&vectors[..1], &[1.0, 1.0]),
            Err(MdsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            d.append_point(&vectors, &[1.0]),
            Err(MdsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            d.append_point(&vectors, &[f64::NAN, 0.0]),
            Err(MdsError::NonFinite { .. })
        ));
        // Failed appends leave the matrix untouched.
        assert_eq!(d, DistanceMatrix::from_vectors(&vectors).unwrap());
    }

    #[test]
    fn summary_statistics() {
        let vectors = vec![vec![0.0], vec![1.0], vec![3.0]];
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        assert_eq!(d.sum_squares(), 1.0 + 9.0 + 4.0);
    }
}
