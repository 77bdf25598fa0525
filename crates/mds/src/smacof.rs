//! SMACOF — Scaling by MAjorizing a COmplicated Function.
//!
//! Minimises the raw stress `Σ_{i<j} (d_ij(X) − δ_ij)²` (the loss function
//! from §2.2 of the Stay-Away paper) by iterating the Guttman transform
//! `X ← (1/n)·B(X)·X`. Each sweep is guaranteed not to increase the stress,
//! which the property tests in this module rely on.
//!
//! A sweep is one serial pass over the pairs `i < j` (`fused_pass`): the
//! embedded distance `d_ij` is evaluated once and yields both the pair's
//! stress term and its Guttman contribution to rows `i` and `j`, so a
//! solve of `s` sweeps costs `s + 1` passes over `n(n−1)/2` pairs and two
//! coordinate buffers.
//!
//! Three entry points are provided:
//!
//! * [`Smacof::embed`] — cold-start embedding seeded by classical MDS;
//! * [`Smacof::embed_warm`] — warm-start from a previous configuration (new
//!   points are appended via [`warm_start_with_new_points`]); its traced
//!   twin reports the solve's [`SolveTrace`], whose stress drop tells the
//!   controller whether solving still pays;
//! * [`Smacof::place_last`] — the same majorization restricted to one point,
//!   every other point fixed: O(n) per round instead of O(n²) per sweep.
//!   The Stay-Away controller fits each new state this way and falls back
//!   to `embed_warm` only when the point's own column of the stress says it
//!   does not fit the map it was placed into.

use crate::classical::classical_mds;
use crate::distance::DistanceMatrix;
use crate::embedding::Embedding;
use crate::MdsError;

/// Inter-point distances at or below this threshold are treated as
/// coincident by the Guttman transform: their `δ/d` ratio is clamped
/// to zero instead of emitting a huge or non-finite coordinate update
/// that would poison the whole embedding.
const MIN_EMBED_DIST: f64 = 1e-12;

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
}

impl Smacof {
    /// Creates a solver targeting `dim` dimensions with default iteration
    /// budget (300) and relative stress tolerance (1e-8).
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

    /// Target dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
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

    /// Like [`Smacof::embed`], but also reports what the solve did
    /// ([`SolveTrace`]) — the same computation, traced.
    ///
    /// # Errors
    ///
    /// Propagates seed/solver failures; returns [`MdsError::Empty`] for an
    /// empty matrix.
    pub fn embed_traced(
        &self,
        dissim: &DistanceMatrix,
    ) -> Result<(Embedding, SolveTrace), MdsError> {
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

    /// Like [`Smacof::embed_warm`], but also reports what the solve did
    /// ([`SolveTrace`]): its sweeps and the raw stress at either end —
    /// the same computation, traced. The stresses are the ones the sweeps
    /// compute anyway, so tracing adds no pass.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] when `init` has the wrong
    /// number of points or dimensionality.
    pub fn embed_warm_traced(
        &self,
        dissim: &DistanceMatrix,
        init: Embedding,
    ) -> Result<(Embedding, SolveTrace), MdsError> {
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
        let mut trace = SolveTrace::default();
        if n <= 1 {
            return Ok((init, trace));
        }

        // Two coordinate buffers ping-pong: a pass over X_k (`x`) leaves
        // X_{k+1} in `next` and returns stress(X_k). The convergence test
        // on the newest iterate therefore already holds the following
        // iterate — the next sweep's output if the solve continues,
        // dropped if it stops — and when the budget is spent the trailing
        // stress nobody reads is never computed.
        let dim = self.dim;
        let delta = dissim.condensed();
        let mut x = init.into_coords();
        if self.max_iterations > 0 {
            let mut next = vec![0.0; x.len()];
            let mut prev_stress = fused_pass(dim, &x, delta, &mut next);
            trace.start_stress = prev_stress;
            trace.last_stress = prev_stress;
            loop {
                std::mem::swap(&mut x, &mut next);
                trace.sweeps += 1;
                if trace.sweeps == self.max_iterations as u64 {
                    break;
                }
                let stress = fused_pass(dim, &x, delta, &mut next);
                trace.last_stress = stress;
                // Relative improvement check (stress is monotonically
                // non-increasing under the Guttman transform).
                let denom = prev_stress.max(f64::MIN_POSITIVE);
                if (prev_stress - stress) / denom < self.tolerance {
                    break;
                }
                prev_stress = stress;
            }
        }
        Ok((Embedding::from_coords(dim, x)?, trace))
    }
}

/// What one global solve did, beside the configuration it returned.
///
/// The stresses are raw (`Σ_{i<j} (d_ij − δ_ij)²`) and both 0.0 when no
/// pass ran (fewer than two points, or a zero iteration budget). When the
/// tolerance stops the solve, `last_stress` is that of the returned
/// configuration; when the budget does, it is that of the iterate before
/// it, which the Guttman transform guarantees is no lower — so
/// [`SolveTrace::relative_gain`] never overstates what the solve did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveTrace {
    /// Majorization sweeps run before convergence or the budget's end.
    pub sweeps: u64,
    /// Raw stress of the start configuration.
    pub start_stress: f64,
    /// The last raw stress the solve computed.
    pub last_stress: f64,
}

impl SolveTrace {
    /// The share of the start's raw stress the solve removed,
    /// `(start − last) / start`; 0.0 for a start without stress.
    pub fn relative_gain(&self) -> f64 {
        if self.start_stress > 0.0 {
            (self.start_stress - self.last_stress) / self.start_stress
        } else {
            0.0
        }
    }
}

impl Default for Smacof {
    fn default() -> Self {
        Smacof::new(2)
    }
}

impl Smacof {
    /// Fits the **last** point of `config` to its column of `dissim`,
    /// leaving every other point where it is, and returns the normalised
    /// stress of that column at the final position,
    /// `sqrt(Σ_j (d_pj − δ_pj)² / Σ_j δ_pj²)`: how well the point's place
    /// in this map reproduces its dissimilarities to every other point
    /// (0.0 for a column without mass).
    ///
    /// Each round is the Guttman update restricted to that point `p`,
    /// `x_p ← (1/(n−1)) Σ_j [x_j + (δ_pj/d_pj)(x_p − x_j)]` — the
    /// majorizer of the column stress `Σ_j (d_pj − δ_pj)²`, so a round
    /// never raises it. Rounds stop on the solver's own iteration budget
    /// and relative tolerance. One round costs one pass over the column and
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::Empty`] for an empty matrix and
    /// [`MdsError::DimensionMismatch`] when `config` has the wrong number
    /// of points or dimensionality.
    pub fn place_last(
        &self,
        dissim: &DistanceMatrix,
        config: &mut Embedding,
    ) -> Result<f64, MdsError> {
        let n = dissim.len();
        if n == 0 {
            return Err(MdsError::Empty);
        }
        for (expected, found) in [(n, config.len()), (self.dim, config.dim())] {
            if expected != found {
                return Err(MdsError::DimensionMismatch { expected, found });
            }
        }
        if n == 1 {
            // Nothing to fit the point to.
            return Ok(0.0);
        }
        let dim = self.dim;
        let delta = dissim.column(n - 1);
        let (fixed, point) = config.coords_mut().split_at_mut((n - 1) * dim);
        let mut next = vec![0.0; dim];
        // As in the solver, a pass over the current position returns its
        // stress and leaves the next one behind; unlike the solver the
        // final position's stress is always wanted, so it is always taken.
        let mut stress = place_pass(dim, fixed, point, delta, &mut next);
        for _ in 0..self.max_iterations {
            point.copy_from_slice(&next);
            let moved = place_pass(dim, fixed, point, delta, &mut next);
            let gain = (stress - moved) / stress.max(f64::MIN_POSITIVE);
            stress = moved;
            if gain < self.tolerance {
                break;
            }
        }
        let mass: f64 = delta.iter().map(|d| d * d).sum();
        Ok(if mass > 0.0 {
            (stress / mass).sqrt()
        } else {
            0.0
        })
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

/// One fused pass over the pairs `i < j` of the row-major configuration
/// `x`: returns the raw stress `Σ_{i<j} (d_ij − δ_ij)²` of `x` and writes
/// its Guttman transform `(1/n)·B(x)·x` into `next`.
///
/// Row i of B·X expands to `Σ_{j≠i} (δ_ij / d_ij)(x_i − x_j)` because the
/// diagonal entry b_ii closes each row of B to zero sum, and the term of
/// pair (i, j) enters rows i and j with opposite signs — so each `d_ij` is
/// evaluated once and scattered to both. Row i receives its terms in
/// ascending j (those with j < i while the earlier rows are walked, those
/// with j > i during its own row, then the `/ n`), which makes the result
/// bit-identical to summing every row on its own; the scatter also makes
/// the pass inherently sequential over rows.
///
/// `delta` is the condensed column-major triangle of
/// `DistanceMatrix::condensed`: δ_ij (i < j) sits at `j(j−1)/2 + i`, so
/// along row i the index starts at `i(i+1)/2 + i` for `j = i + 1` and
/// advances by `j`.
#[inline(always)]
fn fused_pass_dim(dim: usize, x: &[f64], delta: &[f64], next: &mut [f64]) -> f64 {
    let n = x.len() / dim;
    next.fill(0.0);
    let mut stress = 0.0;
    for (i, xi) in x.chunks_exact(dim).enumerate() {
        let (head, tail) = next.split_at_mut((i + 1) * dim);
        let acc_i = &mut head[i * dim..];
        let mut idx = i * (i + 1) / 2 + i;
        let rest = x[(i + 1) * dim..].chunks_exact(dim);
        for (j, (xj, acc_j)) in (i + 1..).zip(rest.zip(tail.chunks_exact_mut(dim))) {
            let mut sq = 0.0;
            for k in 0..dim {
                let dx = xi[k] - xj[k];
                sq += dx * dx;
            }
            let d = sq.sqrt();
            let target = delta[idx];
            idx += j;
            let diff = d - target;
            stress += diff * diff;
            let ratio = guarded_ratio(target, d);
            for k in 0..dim {
                let term = ratio * (xi[k] - xj[k]);
                acc_i[k] += term;
                acc_j[k] -= term;
            }
        }
        for v in acc_i {
            *v /= n as f64;
        }
    }
    stress
}

/// [`fused_pass_dim`], instantiated with the constant 2 for the paper's
/// planar map so the coordinate loops unroll (1.7× on the pass); any other
/// `dim` runs the same code with runtime trip counts.
fn fused_pass(dim: usize, x: &[f64], delta: &[f64], next: &mut [f64]) -> f64 {
    match dim {
        2 => fused_pass_dim(2, x, delta, next),
        _ => fused_pass_dim(dim, x, delta, next),
    }
}

/// One placement round for the point at `point` against the row-major
/// `fixed` points and its dissimilarities `delta` to them: returns the
/// column's raw stress `Σ_j (d_pj − δ_pj)²` at `point` and writes the
/// restricted Guttman update into `next`. `fixed` must not be empty.
#[inline(always)]
fn place_pass_dim(
    dim: usize,
    fixed: &[f64],
    point: &[f64],
    delta: &[f64],
    next: &mut [f64],
) -> f64 {
    next.fill(0.0);
    let mut stress = 0.0;
    for (xj, &target) in fixed.chunks_exact(dim).zip(delta) {
        let mut sq = 0.0;
        for k in 0..dim {
            let dx = point[k] - xj[k];
            sq += dx * dx;
        }
        let d = sq.sqrt();
        let diff = d - target;
        stress += diff * diff;
        let ratio = guarded_ratio(target, d);
        for k in 0..dim {
            next[k] += xj[k] + ratio * (point[k] - xj[k]);
        }
    }
    for v in next {
        *v /= delta.len() as f64;
    }
    stress
}

/// [`place_pass_dim`] with the planar case unrolled, as [`fused_pass`].
fn place_pass(dim: usize, fixed: &[f64], point: &[f64], delta: &[f64], next: &mut [f64]) -> f64 {
    match dim {
        2 => place_pass_dim(2, fixed, point, delta, next),
        _ => place_pass_dim(dim, fixed, point, delta, next),
    }
}

/// Angle between the start offsets of consecutive new points: the golden
/// angle, whose multiples never line up.
const NUDGE_TURN: f64 = 2.399_963_229_728_653;

/// Builds a warm-start configuration for a dissimilarity matrix that extends
/// a previous one with extra trailing points.
///
/// The first `prev.len()` points keep their old coordinates; each new point
/// is placed at the coordinates of its nearest already-embedded neighbour
/// (by the dissimilarities in `dissim`), nudged by a tiny deterministic
/// offset so coincident starts can separate. This is the start the
/// Stay-Away controller gives every new state so the map stays visually and
/// topologically stable (§4 of the paper relies on the map being steady
/// enough to define trajectories on).
///
/// The offset's direction turns by the golden angle from one point to the
/// next. It must: a Guttman sweep maps a collinear configuration to a
/// collinear one, so offsets that all share a direction confine a map grown
/// from one point to the line its first two points span — a stationary
/// point of the stress that no number of sweeps leaves.
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
        // appended new points); the first minimum wins ties.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (j, &d) in dissim.column(i).iter().enumerate() {
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        let mut p = init.point(best).to_vec();
        // Deterministic tiny offset so two coincident points can separate
        // during majorization: (cos θ, sin θ, sin 2θ, …), functions of θ no
        // hyperplane contains. One axis has no direction to turn.
        let nudge = 1e-6 * (1.0 + (i % 7) as f64);
        let theta = i as f64 * NUDGE_TURN;
        p[0] += nudge * if p.len() > 1 { theta.cos() } else { 1.0 };
        for (k, v) in p.iter_mut().enumerate().skip(1) {
            *v += nudge * (k as f64 * theta).sin();
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
        // Each pass returns the stress of the configuration it read and
        // leaves the next iterate behind, so chaining passes walks the
        // stress sequence of the majorization.
        let d = simplex(6);
        let mut x = classical_mds(&d, 2).unwrap().into_coords();
        let mut next = vec![0.0; x.len()];
        let mut prev = fused_pass(2, &x, d.condensed(), &mut next);
        for _ in 0..50 {
            std::mem::swap(&mut x, &mut next);
            let s = fused_pass(2, &x, d.condensed(), &mut next);
            assert!(s <= prev + 1e-12, "stress increased: {prev} -> {s}");
            prev = s;
        }
    }

    #[test]
    fn pass_reports_the_stress_of_the_configuration_it_read() {
        let pts = vec![
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.5, 0.0],
            vec![0.2, 2.0, 0.3],
        ];
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let x = Embedding::from_coords(2, vec![0.0, 0.1, 0.9, 0.4, 0.3, 1.7]).unwrap();
        let mut next = vec![f64::NAN; 6];
        let coords = x.clone().into_coords();
        let stress = fused_pass(2, &coords, d.condensed(), &mut next);
        assert_eq!(stress, x.raw_stress(&d).unwrap());
        assert!(next.iter().all(|v| v.is_finite()), "stale output kept");
    }

    #[test]
    fn zero_iteration_budget_returns_the_start_untouched() {
        let d = simplex(5);
        let init = classical_mds(&d, 2).unwrap();
        let (e, trace) = Smacof::new(2)
            .max_iterations(0)
            .embed_warm_traced(&d, init.clone())
            .unwrap();
        assert_eq!((e, trace), (init, SolveTrace::default()));
    }

    #[test]
    fn new_point_starts_at_its_first_nearest_neighbour() {
        // Point 3 is equidistant from points 1 and 2: the lower index wins.
        let d = DistanceMatrix::from_fn(4, |i, j| match (i, j) {
            (1, 3) | (2, 3) => 1.0,
            _ => 5.0,
        })
        .unwrap();
        let prev = Embedding::from_coords(2, vec![0.0, 0.0, 4.0, 0.0, 0.0, 4.0]).unwrap();
        let init = warm_start_with_new_points(&prev, &d).unwrap();
        let (x, y) = init.xy(3);
        assert!(
            (x - 4.0).abs() < 1e-4 && y.abs() < 1e-4,
            "placed at ({x}, {y})"
        );
    }

    #[test]
    fn consecutive_starts_leave_the_line_of_the_first_two() {
        // Four points grown from nothing, each beside point 0: offsets that
        // shared one direction would keep every later sweep on a line.
        let d = simplex(4);
        let init = warm_start_with_new_points(&Embedding::zeros(0, 2), &d).unwrap();
        let (ax, ay) = init.xy(1);
        for i in 2..4 {
            let (bx, by) = init.xy(i);
            let sine = (ax * by - ay * bx) / (ax.hypot(ay) * bx.hypot(by));
            assert!(sine.abs() > 0.1, "start {i} is collinear with start 1");
        }
    }

    #[test]
    fn place_last_validates_shapes_and_leaves_a_lone_point_alone() {
        let d = simplex(4);
        for wrong in [Embedding::zeros(3, 2), Embedding::zeros(4, 3)] {
            let mut config = wrong;
            assert!(matches!(
                Smacof::new(2).place_last(&d, &mut config),
                Err(MdsError::DimensionMismatch { .. })
            ));
        }
        let lone = DistanceMatrix::from_vectors(&[vec![1.0]]).unwrap();
        let mut config = Embedding::from_coords(2, vec![0.3, 0.4]).unwrap();
        assert_eq!(Smacof::new(2).place_last(&lone, &mut config), Ok(0.0));
        assert_eq!(config.xy(0), (0.3, 0.4));
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
        let (traced, trace) = Smacof::new(2).embed_traced(&d).unwrap();
        assert_eq!(plain, traced, "tracing must not change the embedding");
        assert!(trace.sweeps >= 1);
        assert!(trace.sweeps <= 300);
        // The majorization never raises the stress.
        assert!(trace.last_stress <= trace.start_stress);
        assert!((0.0..=1.0).contains(&trace.relative_gain()));
        // A single point converges in zero sweeps.
        let d1 = DistanceMatrix::from_vectors(&[vec![1.0]]).unwrap();
        let (_, trace) = Smacof::new(2).embed_traced(&d1).unwrap();
        assert_eq!(trace, SolveTrace::default());
        assert_eq!(trace.relative_gain(), 0.0);
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
