//! 2-D points in the mapped state space.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the 2-D mapped space.
///
/// This is a passive value type: both coordinates are public.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin.
    pub fn origin() -> Self {
        Point2 { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// The *absolute angle* (§3.2.3) of the step from `self` to `other`:
    /// the angle in `(-π, π]` between the positive x-axis and the step
    /// vector. Returns 0.0 for a zero-length step.
    pub fn angle_to(&self, other: Point2) -> f64 {
        let dy = other.y - self.y;
        let dx = other.x - self.x;
        if dx == 0.0 && dy == 0.0 {
            0.0
        } else {
            dy.atan2(dx)
        }
    }

    /// The point reached by stepping `length` at `angle` from `self`.
    pub fn step(&self, length: f64, angle: f64) -> Point2 {
        Point2 {
            x: self.x + length * angle.cos(),
            y: self.y + length * angle.sin(),
        }
    }

    /// True when both coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2 { x, y }
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn angle_covers_all_quadrants() {
        let o = Point2::origin();
        assert_eq!(o.angle_to(Point2::new(1.0, 0.0)), 0.0);
        assert!((o.angle_to(Point2::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((o.angle_to(Point2::new(-1.0, 0.0)) - PI).abs() < 1e-12);
        assert!((o.angle_to(Point2::new(0.0, -1.0)) + FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn zero_step_angle_is_zero() {
        let p = Point2::new(1.0, 1.0);
        assert_eq!(p.angle_to(p), 0.0);
    }

    #[test]
    fn step_inverts_angle_and_distance() {
        let a = Point2::new(0.3, -0.7);
        let b = Point2::new(-1.1, 0.4);
        let reached = a.step(a.distance(b), a.angle_to(b));
        assert!(reached.distance(b) < 1e-12);
    }

    #[test]
    fn conversions_and_display() {
        let p: Point2 = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
        assert_eq!(format!("{p}"), "(1.0000, 2.0000)");
    }

    #[test]
    fn serde_round_trip() {
        let p = Point2::new(0.25, -3.5);
        let json = serde_json::to_string(&p).unwrap();
        let q: Point2 = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }
}
