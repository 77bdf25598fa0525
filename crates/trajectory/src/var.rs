//! Vector-autoregressive forecasting — the §3.1 alternative.
//!
//! "A natural technique for forecasting in high dimensions is Vector
//! Autoregressive Models (VAR)". The paper rejects VAR for the
//! high-dimensional space (unreliable parameter estimation from small
//! samples) and uses histogram sampling in 2-D instead. This module
//! implements a VAR(1) model over the 2-D trajectory so the
//! `ablation_var` bench can compare both predictors on equal footing:
//!
//! ```text
//! x_{t+1} = A·x_t + b + ε
//! ```
//!
//! with `A ∈ ℝ^{2×2}`, `b ∈ ℝ²` fitted by least squares over a sliding
//! window of transitions.

use crate::TrajectoryError;
use stayaway_statespace::Point2;
use std::collections::VecDeque;

/// Default sliding-window capacity (transitions retained for fitting).
pub(crate) const DEFAULT_WINDOW: usize = 256;

/// Minimum transitions before the model can be fitted.
pub(crate) const MIN_OBSERVATIONS: usize = 6;

/// A first-order vector-autoregressive model of the 2-D mapped state.
#[derive(Debug, Clone)]
pub struct VarModel {
    window: VecDeque<(Point2, Point2)>,
    capacity: usize,
}

/// A fitted VAR(1): `next ≈ A·current + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VarFit {
    /// Row-major 2×2 transition matrix.
    pub(crate) a: [[f64; 2]; 2],
    /// Intercept.
    pub(crate) b: [f64; 2],
    /// Residual standard deviation per axis (for sampling spread).
    pub(crate) residual_sd: [f64; 2],
}

impl VarFit {
    /// One-step forecast from `current`.
    pub(crate) fn forecast(&self, current: Point2) -> Point2 {
        Point2::new(
            self.a[0][0] * current.x + self.a[0][1] * current.y + self.b[0],
            self.a[1][0] * current.x + self.a[1][1] * current.y + self.b[1],
        )
    }
}

impl VarModel {
    /// Creates an empty model with the default window.
    pub fn new() -> Self {
        VarModel::with_capacity(DEFAULT_WINDOW)
    }

    /// Creates an empty model retaining at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        VarModel {
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records one transition `from → to` (non-finite points are dropped).
    pub fn observe(&mut self, from: Point2, to: Point2) {
        if !from.is_finite() || !to.is_finite() {
            return;
        }
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back((from, to));
    }

    /// Fits the VAR(1) parameters by ordinary least squares.
    ///
    /// Each output axis is regressed independently on `(x, y, 1)`; the
    /// 3×3 normal equations are solved by Gaussian elimination with a
    /// ridge fallback for degenerate windows (e.g. a stationary
    /// trajectory).
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] with fewer than
    /// [`MIN_OBSERVATIONS`] transitions.
    pub(crate) fn fit(&self) -> Result<VarFit, TrajectoryError> {
        let n = self.window.len();
        if n < MIN_OBSERVATIONS {
            return Err(TrajectoryError::InsufficientData {
                required: MIN_OBSERVATIONS,
                available: n,
            });
        }
        // Normal matrix M = Σ z·zᵀ with z = (x, y, 1), shared by both axes.
        let mut m = [[0.0f64; 3]; 3];
        let mut rhs = [[0.0f64; 3]; 2]; // per output axis
        for &(from, to) in &self.window {
            let z = [from.x, from.y, 1.0];
            for i in 0..3 {
                for j in 0..3 {
                    m[i][j] += z[i] * z[j];
                }
                rhs[0][i] += z[i] * to.x;
                rhs[1][i] += z[i] * to.y;
            }
        }
        // Tikhonov ridge keeps the system solvable for degenerate windows.
        let ridge = 1e-9 * (1.0 + m[0][0].abs() + m[1][1].abs());
        for (i, row) in m.iter_mut().enumerate() {
            row[i] += ridge;
        }

        let cx = solve3(m, rhs[0]).ok_or(TrajectoryError::InvalidParameter {
            name: "singular normal equations",
        })?;
        let cy = solve3(m, rhs[1]).ok_or(TrajectoryError::InvalidParameter {
            name: "singular normal equations",
        })?;

        let a = [[cx[0], cx[1]], [cy[0], cy[1]]];
        let b = [cx[2], cy[2]];

        // Residual spread.
        let mut sq = [0.0f64; 2];
        for &(from, to) in &self.window {
            let pred = VarFit {
                a,
                b,
                residual_sd: [0.0, 0.0],
            }
            .forecast(from);
            sq[0] += (to.x - pred.x).powi(2);
            sq[1] += (to.y - pred.y).powi(2);
        }
        let residual_sd = [(sq[0] / n as f64).sqrt(), (sq[1] / n as f64).sqrt()];
        Ok(VarFit { a, b, residual_sd })
    }

    /// Convenience: fit and forecast in one call.
    ///
    /// # Errors
    ///
    /// Propagates `VarModel::fit` failures.
    pub fn forecast(&self, current: Point2) -> Result<Point2, TrajectoryError> {
        Ok(self.fit()?.forecast(current))
    }
}

impl Default for VarModel {
    fn default() -> Self {
        VarModel::new()
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting. Returns `None` for (numerically) singular systems.
fn solve3(mut m: [[f64; 3]; 3], mut rhs: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let mut pivot = col;
        for r in (col + 1)..3 {
            if m[r][col].abs() > m[pivot][col].abs() {
                pivot = r;
            }
        }
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for r in (col + 1)..3 {
            let f = m[r][col] / m[col][col];
            let pivot_row = m[col];
            for (c, cell) in m[r].iter_mut().enumerate().skip(col) {
                *cell -= f * pivot_row[c];
            }
            rhs[r] -= f * rhs[col];
        }
    }
    let mut out = [0.0; 3];
    for col in (0..3).rev() {
        let mut acc = rhs[col];
        for c in (col + 1)..3 {
            acc -= m[col][c] * out[c];
        }
        out[col] = acc / m[col][col];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_line(model: &mut VarModel, n: usize) {
        // Pure translation: x_{t+1} = x_t + (0.1, 0.05).
        let mut p = Point2::origin();
        for _ in 0..n {
            let next = Point2::new(p.x + 0.1, p.y + 0.05);
            model.observe(p, next);
            p = next;
        }
    }

    #[test]
    fn learns_a_pure_translation() {
        let mut m = VarModel::new();
        feed_line(&mut m, 30);
        let fit = m.fit().unwrap();
        let pred = fit.forecast(Point2::new(5.0, 2.5));
        assert!((pred.x - 5.1).abs() < 1e-6, "pred = {pred}");
        assert!((pred.y - 2.55).abs() < 1e-6);
        assert!(fit.residual_sd[0] < 1e-6);
    }

    #[test]
    fn learns_a_contraction_map() {
        // x_{t+1} = 0.5·x_t, observed from two non-collinear start points
        // (a single trajectory of a scaling map is a line, which leaves
        // the off-line dynamics underdetermined).
        let mut m = VarModel::new();
        for start in [Point2::new(4.0, -2.0), Point2::new(-1.0, 3.0)] {
            let mut p = start;
            for _ in 0..20 {
                let next = Point2::new(0.5 * p.x, 0.5 * p.y);
                m.observe(p, next);
                p = next;
            }
        }
        let fit = m.fit().unwrap();
        let pred = fit.forecast(Point2::new(1.0, 1.0));
        assert!((pred.x - 0.5).abs() < 1e-4, "pred = {pred}");
        assert!((pred.y - 0.5).abs() < 1e-4);
    }

    #[test]
    fn rejects_small_samples() {
        let mut m = VarModel::new();
        feed_line(&mut m, MIN_OBSERVATIONS - 1);
        assert!(matches!(
            m.fit(),
            Err(TrajectoryError::InsufficientData { .. })
        ));
    }

    #[test]
    fn stationary_trajectory_degrades_gracefully() {
        // Identical points: the ridge keeps the fit defined and the
        // forecast stays at the fixed point.
        let mut m = VarModel::new();
        let p = Point2::new(0.3, 0.7);
        for _ in 0..20 {
            m.observe(p, p);
        }
        let pred = m.forecast(p).unwrap();
        assert!(pred.distance(p) < 1e-3, "pred = {pred}");
    }

    #[test]
    fn window_evicts_old_dynamics() {
        let mut m = VarModel::with_capacity(20);
        // Old regime: move east. New regime: move north.
        let mut p = Point2::origin();
        for _ in 0..40 {
            let next = Point2::new(p.x + 0.1, p.y);
            m.observe(p, next);
            p = next;
        }
        for _ in 0..20 {
            let next = Point2::new(p.x, p.y + 0.1);
            m.observe(p, next);
            p = next;
        }
        assert_eq!(m.window.len(), 20);
        let pred = m.forecast(p).unwrap();
        assert!(pred.y > p.y + 0.05, "old regime still dominates: {pred}");
    }

    #[test]
    fn non_finite_observations_dropped() {
        let mut m = VarModel::new();
        m.observe(Point2::new(f64::NAN, 0.0), Point2::origin());
        m.observe(Point2::origin(), Point2::new(f64::INFINITY, 0.0));
        assert!(matches!(
            m.fit(),
            Err(TrajectoryError::InsufficientData { available: 0, .. })
        ));
    }

    #[test]
    fn forecast_error_shrinks_with_observations_on_noisy_affine_dynamics() {
        // x' = A x + b + noise; more data → lower residual estimate error.
        let a = [[0.9, 0.05], [-0.05, 0.9]];
        let b = [0.02, -0.01];
        let apply = |p: Point2, noise: f64| {
            Point2::new(
                a[0][0] * p.x + a[0][1] * p.y + b[0] + noise,
                a[1][0] * p.x + a[1][1] * p.y + b[1] - noise,
            )
        };
        let mut model = VarModel::new();
        let mut p = Point2::new(1.0, -1.0);
        for i in 0..200 {
            let noise = 0.002 * (((i * 31) % 17) as f64 - 8.0);
            let next = apply(p, noise);
            model.observe(p, next);
            p = next;
            // Re-seed occasionally so the trajectory is not collinear.
            if i % 37 == 0 {
                p = Point2::new((i % 5) as f64 * 0.3 - 0.6, (i % 3) as f64 * 0.4 - 0.4);
            }
        }
        let fit = model.fit().unwrap();
        // Recovered dynamics close to the generator.
        assert!((fit.a[0][0] - 0.9).abs() < 0.05, "a00 = {}", fit.a[0][0]);
        assert!((fit.a[1][1] - 0.9).abs() < 0.05, "a11 = {}", fit.a[1][1]);
        assert!(fit.residual_sd[0] < 0.05);
    }

    #[test]
    fn solve3_known_system() {
        // Identity system.
        let m = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]];
        let x = solve3(m, [3.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, [3.0, 2.0, 2.0]);
        // Singular system.
        let m = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        assert!(solve3(m, [1.0, 1.0, 1.0]).is_none());
    }
}
