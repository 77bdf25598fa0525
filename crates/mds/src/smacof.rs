//! SMACOF — Scaling by MAjorizing a COmplicated Function.
//!
//! Minimises the raw stress `Σ_{i<j} (d_ij(X) − δ_ij)²` (the loss function
//! from §2.2 of the Stay-Away paper) by iterating the Guttman transform
//! `X ← (1/n)·B(X)·X`. Each sweep is guaranteed not to increase the stress,
//! which the property tests in this module rely on.
//!
//! Two entry points are provided:
//!
//! * [`Smacof::embed`] — cold-start embedding seeded by classical MDS;
//! * [`Smacof::embed_warm`] — warm-start from a previous configuration, the
//!   basis of the incremental per-period re-embedding used by the Stay-Away
//!   controller (new points are appended via
//!   [`warm_start_with_new_points`]).

use crate::classical::classical_mds;
use crate::distance::DistanceMatrix;
use crate::embedding::Embedding;
use crate::parallel;
use crate::MdsError;

/// Inter-point distances at or below this threshold are treated as
/// coincident by the Guttman transform: their `δ/d` ratio is clamped
/// to zero instead of emitting a huge or non-finite coordinate update
/// that would poison the whole embedding.
const MIN_EMBED_DIST: f64 = 1e-12;

/// Rows per parallel sweep chunk. Derived only from the point count —
/// never from the worker count — so chunk boundaries (and therefore the
/// result bits) are identical however many workers run them.
const SWEEP_CHUNK_ROWS: usize = 64;

/// Configuration and entry point for the SMACOF solver.
///
/// # Example
///
/// ```
/// use stayaway_mds::{distance::DistanceMatrix, smacof::Smacof};
///
/// # fn main() -> Result<(), stayaway_mds::MdsError> {
/// let d = DistanceMatrix::from_vectors(&[
///     vec![0.0, 0.0, 0.0],
///     vec![1.0, 0.0, 0.0],
///     vec![0.0, 1.0, 0.0],
///     vec![0.0, 0.0, 1.0],
/// ])?;
/// let e = Smacof::new(2).max_iterations(200).embed(&d)?;
/// assert!(e.stress(&d)? < 0.2); // a 3-simplex cannot be flat, but close
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Smacof {
    dim: usize,
    max_iterations: usize,
    tolerance: f64,
    workers: usize,
}

impl Smacof {
    /// Creates a solver targeting `dim` dimensions with default iteration
    /// budget (300), relative stress tolerance (1e-8) and a single worker.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "target dimension must be positive");
        Smacof {
            dim,
            max_iterations: 300,
            tolerance: 1e-8,
            workers: 1,
        }
    }

    /// Sets the maximum number of majorization sweeps.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the relative stress-improvement tolerance used to stop early.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the worker-thread budget of the majorization sweep (clamped to
    /// ≥ 1; default 1). Sweep chunk boundaries are derived from the point
    /// count alone, so **the embedding is bit-for-bit identical for every
    /// worker count** — workers only bound how many chunks run
    /// concurrently. Small maps (≤ one chunk) always run inline.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Target dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The worker-thread budget.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Embeds `dissim` starting from a classical-MDS seed.
    ///
    /// # Errors
    ///
    /// Propagates seed/solver failures; returns [`MdsError::Empty`] for an
    /// empty matrix.
    pub fn embed(&self, dissim: &DistanceMatrix) -> Result<Embedding, MdsError> {
        let init = classical_mds(dissim, self.dim)?;
        self.embed_warm(dissim, init)
    }

    /// Like [`Smacof::embed`], but also reports how many majorization
    /// sweeps ran — the same computation, traced for observability.
    ///
    /// # Errors
    ///
    /// Propagates seed/solver failures; returns [`MdsError::Empty`] for an
    /// empty matrix.
    pub fn embed_traced(&self, dissim: &DistanceMatrix) -> Result<(Embedding, u64), MdsError> {
        let init = classical_mds(dissim, self.dim)?;
        self.embed_warm_traced(dissim, init)
    }

    /// Embeds `dissim` starting from the supplied configuration.
    ///
    /// The returned embedding's stress is never higher than the stress of
    /// `init` (majorization guarantee).
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] when `init` has the wrong
    /// number of points or dimensionality.
    pub fn embed_warm(
        &self,
        dissim: &DistanceMatrix,
        init: Embedding,
    ) -> Result<Embedding, MdsError> {
        self.embed_warm_traced(dissim, init).map(|(e, _)| e)
    }

    /// Like [`Smacof::embed_warm`], but also reports how many
    /// majorization sweeps ran before convergence (or the iteration
    /// budget was exhausted) — the same computation, traced for
    /// observability.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] when `init` has the wrong
    /// number of points or dimensionality.
    pub fn embed_warm_traced(
        &self,
        dissim: &DistanceMatrix,
        init: Embedding,
    ) -> Result<(Embedding, u64), MdsError> {
        let n = dissim.len();
        if init.len() != n {
            return Err(MdsError::DimensionMismatch {
                expected: n,
                found: init.len(),
            });
        }
        if init.dim() != self.dim {
            return Err(MdsError::DimensionMismatch {
                expected: self.dim,
                found: init.dim(),
            });
        }
        if n <= 1 {
            return Ok((init, 0));
        }

        let mut x = init;
        let mut prev_stress = x.raw_stress(dissim)?;
        let mut sweeps = 0u64;
        for _ in 0..self.max_iterations {
            x = self.guttman_transform(&x, dissim);
            sweeps += 1;
            let stress = x.raw_stress(dissim)?;
            // Relative improvement check (stress is monotonically
            // non-increasing under the Guttman transform).
            let denom = prev_stress.max(f64::MIN_POSITIVE);
            if (prev_stress - stress) / denom < self.tolerance {
                break;
            }
            prev_stress = stress;
        }
        Ok((x, sweeps))
    }

    /// One Guttman transform sweep `X⁺ = (1/n)·B(X)·X`, chunk-parallel
    /// over output rows. Row computations are independent, so the result
    /// is bit-identical for any worker count and chunking.
    fn guttman_transform(&self, x: &Embedding, dissim: &DistanceMatrix) -> Embedding {
        let dim = x.dim();
        let mut out = vec![0.0; x.len() * dim];
        let pieces = parallel::row_pieces(&mut out, dim, SWEEP_CHUNK_ROWS);
        parallel::scatter(self.workers, pieces, |first_row, rows| {
            guttman_rows(x, dissim, first_row, rows);
        });
        Embedding::from_coords(dim, out).expect("guttman transform preserves shape")
    }
}

impl Default for Smacof {
    fn default() -> Self {
        Smacof::new(2)
    }
}

/// `δ/d` with the coincidence clamp: zero for (near-)coincident embedded
/// points and for any non-finite quotient, so one degenerate pair can
/// never inject inf/NaN into the whole configuration.
#[inline]
fn guarded_ratio(delta: f64, d: f64) -> f64 {
    if d > MIN_EMBED_DIST {
        let r = delta / d;
        if r.is_finite() {
            r
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// Rows `[first_row, first_row + rows)` of one Guttman
/// sweep, `rows = out.len() / dim`. Row i of B·X expands to
/// Σ_{j≠i} (δ_ij / d_ij)(x_i − x_j) because the diagonal entry b_ii
/// closes each row of B to zero sum.
fn guttman_rows(x: &Embedding, dissim: &DistanceMatrix, first_row: usize, out: &mut [f64]) {
    let n = x.len();
    let dim = x.dim();
    for (r, acc) in out.chunks_mut(dim).enumerate() {
        let i = first_row + r;
        let xi = x.point(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let xj = x.point(j);
            let d = x.distance(i, j);
            let ratio = guarded_ratio(dissim.get(i, j), d);
            for k in 0..dim {
                acc[k] += ratio * (xi[k] - xj[k]);
            }
        }
        for v in acc.iter_mut() {
            *v /= n as f64;
        }
    }
}

/// Builds a warm-start configuration for a dissimilarity matrix that extends
/// a previous one with extra trailing points.
///
/// The first `prev.len()` points keep their old coordinates; each new point
/// is placed at the coordinates of its nearest already-embedded neighbour
/// (by the dissimilarities in `dissim`), nudged by a tiny deterministic
/// offset so coincident starts can separate. This is the placement strategy
/// the Stay-Away controller uses every period so the map stays visually and
/// topologically stable (§4 of the paper relies on the map being steady
/// enough to define trajectories on).
///
/// # Errors
///
/// Returns [`MdsError::DimensionMismatch`] if `dissim` has fewer points than
/// `prev`.
pub fn warm_start_with_new_points(
    prev: &Embedding,
    dissim: &DistanceMatrix,
) -> Result<Embedding, MdsError> {
    let n_old = prev.len();
    let n = dissim.len();
    if n < n_old {
        return Err(MdsError::DimensionMismatch {
            expected: n_old,
            found: n,
        });
    }
    let mut init = prev.clone();
    for i in n_old..n {
        if i == 0 {
            init.push(&vec![0.0; prev.dim()]);
            continue;
        }
        // Nearest among points already placed (old points and previously
        // appended new points).
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for j in 0..i {
            let d = dissim.get(i, j);
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        let mut p = init.point(best).to_vec();
        // Deterministic tiny offset so two coincident points can separate
        // during majorization.
        let nudge = 1e-6 * (1.0 + (i % 7) as f64);
        p[0] += nudge;
        if p.len() > 1 {
            p[1] -= nudge * 0.5;
        }
        init.push(&p);
    }
    Ok(init)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simplex(n: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |_, _| 1.0).unwrap()
    }

    #[test]
    fn embeds_planar_data_with_negligible_stress() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![2.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.5],
        ];
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        assert!(e.stress(&d).unwrap() < 1e-6);
    }

    #[test]
    fn stress_is_monotone_under_sweeps() {
        let d = simplex(6);
        let solver = Smacof::new(2);
        let mut x = classical_mds(&d, 2).unwrap();
        let mut prev = x.raw_stress(&d).unwrap();
        for _ in 0..50 {
            x = solver.guttman_transform(&x, &d);
            let s = x.raw_stress(&d).unwrap();
            assert!(s <= prev + 1e-12, "stress increased: {prev} -> {s}");
            prev = s;
        }
    }

    /// A point cloud big enough to span several `SWEEP_CHUNK_ROWS` chunks.
    fn cloud(n: usize) -> DistanceMatrix {
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i as f64 * 0.37).sin(),
                    (i as f64 * 0.61).cos(),
                    (i as f64 * 0.13).sin() * 0.5,
                ]
            })
            .collect();
        DistanceMatrix::from_vectors(&pts).unwrap()
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let d = cloud(150);
        let reference = Smacof::new(2).max_iterations(15).embed(&d).unwrap();
        for workers in [2, 3, 4, 8] {
            let parallel = Smacof::new(2)
                .max_iterations(15)
                .workers(workers)
                .embed(&d)
                .unwrap();
            assert_eq!(reference, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    fn workers_builder_clamps_to_one() {
        let s = Smacof::new(2).workers(0);
        assert_eq!(s.worker_count(), 1);
        assert_eq!(s.workers(4).worker_count(), 4);
    }

    #[test]
    fn warm_start_matches_cold_start_quality() {
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                vec![
                    (i as f64 * 0.37).sin(),
                    (i as f64 * 0.61).cos(),
                    i as f64 * 0.1,
                ]
            })
            .collect();
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let cold = Smacof::new(2).embed(&d).unwrap();
        let warm = Smacof::new(2).embed_warm(&d, cold.clone()).unwrap();
        assert!(warm.stress(&d).unwrap() <= cold.stress(&d).unwrap() + 1e-12);
    }

    #[test]
    fn incremental_growth_keeps_old_points_roughly_stable() {
        // Embed 8 points, then extend with 2 more near the first cluster.
        let mut pts: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 * 0.1, (i as f64 * 0.2).sin(), 0.0])
            .collect();
        let d8 = DistanceMatrix::from_vectors(&pts).unwrap();
        let e8 = Smacof::new(2).embed(&d8).unwrap();

        pts.push(vec![0.05, 0.01, 0.0]);
        pts.push(vec![0.15, 0.02, 0.0]);
        let d10 = DistanceMatrix::from_vectors(&pts).unwrap();
        let init = warm_start_with_new_points(&e8, &d10).unwrap();
        assert_eq!(init.len(), 10);
        let e10 = Smacof::new(2)
            .max_iterations(30)
            .embed_warm(&d10, init)
            .unwrap();
        assert!(e10.stress(&d10).unwrap() < 0.05);
    }

    #[test]
    fn warm_start_rejects_shrinking_matrix() {
        let d = simplex(3);
        let e = Smacof::new(2).embed(&d).unwrap();
        let d2 = simplex(2);
        assert!(warm_start_with_new_points(&e, &d2).is_err());
    }

    #[test]
    fn single_point_is_a_fixed_point() {
        let d = DistanceMatrix::from_vectors(&[vec![42.0]]).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn coincident_points_do_not_produce_nan() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        for p in e.iter() {
            assert!(p.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn builder_configuration() {
        let s = Smacof::new(3).max_iterations(10).tolerance(1e-4);
        assert_eq!(s.dim(), 3);
        let d = simplex(4);
        assert!(s.embed(&d).is_ok());
    }

    #[test]
    fn traced_embedding_matches_untraced_and_counts_sweeps() {
        let pts: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                vec![
                    (i as f64 * 0.3).sin(),
                    (i as f64 * 0.7).cos(),
                    i as f64 * 0.05,
                ]
            })
            .collect();
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let plain = Smacof::new(2).embed(&d).unwrap();
        let (traced, sweeps) = Smacof::new(2).embed_traced(&d).unwrap();
        assert_eq!(plain, traced, "tracing must not change the embedding");
        assert!(sweeps >= 1);
        assert!(sweeps <= 300);
        // A single point converges in zero sweeps.
        let d1 = DistanceMatrix::from_vectors(&[vec![1.0]]).unwrap();
        let (_, sweeps) = Smacof::new(2).embed_traced(&d1).unwrap();
        assert_eq!(sweeps, 0);
    }

    #[test]
    fn embed_warm_validates_dimensions() {
        let d = simplex(4);
        let wrong_n = Embedding::zeros(3, 2);
        assert!(Smacof::new(2).embed_warm(&d, wrong_n).is_err());
        let wrong_dim = Embedding::zeros(4, 3);
        assert!(Smacof::new(2).embed_warm(&d, wrong_dim).is_err());
    }
}
