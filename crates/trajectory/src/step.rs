//! Steps — the per-transition parameters of a trajectory.

use serde::{Deserialize, Serialize};
use stayaway_statespace::Point2;

/// One transition of the mapped state: a step length and an absolute angle
/// (the two parameters §3.2.3 identifies as sufficient to reconstruct
/// characteristic tracks).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Euclidean length of the step.
    pub length: f64,
    /// Absolute angle in `(-π, π]` between the x-axis and the step vector.
    pub angle: f64,
}

impl Step {
    /// The step taken when moving from `from` to `to`.
    pub fn between(from: Point2, to: Point2) -> Self {
        Step {
            length: from.distance(to),
            angle: from.angle_to(to),
        }
    }

    /// Applies this step to a position.
    pub fn apply(&self, from: Point2) -> Point2 {
        from.step(self.length, self.angle)
    }

    /// True when both parameters are finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.length.is_finite() && self.angle.is_finite()
    }
}

/// Extracts the step sequence from a sequence of positions (`n` positions
/// yield `n − 1` steps; fewer than two positions yield none).
pub fn steps_between(points: &[Point2]) -> Vec<Step> {
    points
        .windows(2)
        .map(|w| Step::between(w[0], w[1]))
        .collect()
}

/// Wraps an arbitrary angle into `(-π, π]`.
pub fn wrap_angle(theta: f64) -> f64 {
    if !theta.is_finite() {
        return 0.0;
    }
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut t = theta % two_pi;
    if t <= -std::f64::consts::PI {
        t += two_pi;
    } else if t > std::f64::consts::PI {
        t -= two_pi;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn between_and_apply_round_trip() {
        let a = Point2::new(0.1, 0.2);
        let b = Point2::new(-0.4, 0.9);
        let s = Step::between(a, b);
        assert!(s.apply(a).distance(b) < 1e-12);
    }

    #[test]
    fn steps_between_counts() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let steps = steps_between(&pts);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].length, 1.0);
        assert_eq!(steps[0].angle, 0.0);
        assert!((steps[1].angle - FRAC_PI_2).abs() < 1e-12);
        assert!(steps_between(&pts[..1]).is_empty());
        assert!(steps_between(&[]).is_empty());
    }

    #[test]
    fn wrap_angle_into_principal_interval() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(wrap_angle(0.5), 0.5);
        assert!((wrap_angle(2.0 * PI)).abs() < 1e-12);
        assert_eq!(wrap_angle(f64::NAN), 0.0);
        // Result is always in (-π, π].
        for i in -20..20 {
            let t = wrap_angle(i as f64 * 0.7);
            assert!(t > -PI - 1e-12 && t <= PI + 1e-12);
        }
    }
}
