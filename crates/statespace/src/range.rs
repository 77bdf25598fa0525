//! The Rayleigh-scaled violation-range radius (§3.2.2).

use crate::point::Point2;
use serde::{Deserialize, Serialize};

/// Radius of the violation-range around a violation-state:
///
/// ```text
/// R(d) = d · exp(−d² / (2c²))
/// ```
///
/// where `d` is the distance between the violation-state and its nearest
/// safe-state and `c` is the median of the coordinate range of the mapped
/// space. The shape follows a Rayleigh distribution: for small `d` the
/// radius grows almost linearly (little room has been explored, so most of
/// the gap is presumed unsafe), peaks at `d = c`, and fades for large `d`
/// (a distant safe-state says little, and aggressive ranges would block
/// exploration).
///
/// Degenerate inputs (`d ≤ 0`, `c ≤ 0`, non-finite) yield a radius of 0.0,
/// which makes the range collapse to exact-overlap matching.
pub fn rayleigh_radius(d: f64, c: f64) -> f64 {
    if !d.is_finite() || !c.is_finite() || d <= 0.0 || c <= 0.0 {
        return 0.0;
    }
    d * (-d * d / (2.0 * c * c)).exp()
}

/// The distance at which [`rayleigh_radius`] peaks for a given `c` (namely
/// `d = c`), together with the peak value `c·e^{−1/2}`.
pub fn rayleigh_peak(c: f64) -> (f64, f64) {
    if !c.is_finite() || c <= 0.0 {
        return (0.0, 0.0);
    }
    (c, c * (-0.5f64).exp())
}

/// A circular presumed-unsafe neighbourhood around a violation-state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViolationRange {
    center: Point2,
    radius: f64,
}

impl ViolationRange {
    /// Creates a range; a non-finite or negative radius collapses to 0.0.
    pub fn new(center: Point2, radius: f64) -> Self {
        let radius = if radius.is_finite() && radius > 0.0 {
            radius
        } else {
            0.0
        };
        ViolationRange { center, radius }
    }

    /// The violation-state at the centre.
    pub fn center(&self) -> Point2 {
        self.center
    }

    /// The radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// True when `point` lies inside the range (boundary inclusive).
    ///
    /// A zero-radius range contains only (numerically) the centre itself —
    /// the "exact overlap" regime discussed in §3.2.1.
    pub fn contains(&self, point: Point2) -> bool {
        self.center.distance(point) <= self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_is_zero_at_zero_distance() {
        assert_eq!(rayleigh_radius(0.0, 1.0), 0.0);
    }

    #[test]
    fn radius_peaks_at_c() {
        let c = 0.7;
        let (peak_d, peak_r) = rayleigh_peak(c);
        assert_eq!(peak_d, c);
        let r_at_peak = rayleigh_radius(c, c);
        assert!((r_at_peak - peak_r).abs() < 1e-12);
        // Strictly smaller on either side.
        assert!(rayleigh_radius(c * 0.8, c) < r_at_peak);
        assert!(rayleigh_radius(c * 1.2, c) < r_at_peak);
    }

    #[test]
    fn radius_never_exceeds_distance() {
        // R < d always, so the safe-state itself is never swallowed —
        // the paper's requirement that the entire gap is never the radius.
        for i in 1..200 {
            let d = i as f64 * 0.01;
            let r = rayleigh_radius(d, 0.5);
            assert!(r < d, "R({d}) = {r} >= d");
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn radius_fades_for_large_distances() {
        let c = 0.5;
        assert!(rayleigh_radius(10.0 * c, c) < 1e-8);
    }

    #[test]
    fn degenerate_inputs_yield_zero() {
        assert_eq!(rayleigh_radius(-1.0, 1.0), 0.0);
        assert_eq!(rayleigh_radius(1.0, 0.0), 0.0);
        assert_eq!(rayleigh_radius(f64::NAN, 1.0), 0.0);
        assert_eq!(rayleigh_radius(1.0, f64::INFINITY), 0.0);
        assert_eq!(rayleigh_peak(-1.0), (0.0, 0.0));
    }

    #[test]
    fn range_containment() {
        let r = ViolationRange::new(Point2::new(0.0, 0.0), 1.0);
        assert!(r.contains(Point2::new(0.5, 0.5)));
        assert!(r.contains(Point2::new(1.0, 0.0))); // boundary inclusive
        assert!(!r.contains(Point2::new(1.01, 0.0)));
    }

    #[test]
    fn zero_radius_contains_only_center() {
        let c = Point2::new(0.3, 0.3);
        let r = ViolationRange::new(c, 0.0);
        assert!(r.contains(c));
        assert!(!r.contains(Point2::new(0.3 + 1e-9, 0.3)));
    }

    #[test]
    fn negative_radius_collapses() {
        let r = ViolationRange::new(Point2::origin(), -5.0);
        assert_eq!(r.radius(), 0.0);
        let r = ViolationRange::new(Point2::origin(), f64::NAN);
        assert_eq!(r.radius(), 0.0);
    }
}
