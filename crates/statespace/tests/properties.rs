//! Property-based tests for the state-space invariants.

use proptest::prelude::*;
use stayaway_statespace::viz::MapRenderer;
use stayaway_statespace::{
    rayleigh_radius, ExecutionMode, Point2, StateKind, StateMap, Template, ViolationRange,
};

fn point_strategy() -> impl Strategy<Value = Point2> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y)| Point2::new(x, y))
}

/// Points on a coarse grid half the time, so coincident states, ties
/// between nearest neighbours and probes exactly on a centre all occur.
fn grid_point_strategy() -> impl Strategy<Value = Point2> {
    (any::<bool>(), -3.0f64..3.0, -3.0f64..3.0).prop_map(|(snap, x, y)| {
        if snap {
            Point2::new(x.round(), y.round())
        } else {
            Point2::new(x, y)
        }
    })
}

/// Every violation-range of `map`, recomputed from its entries alone: the
/// Rayleigh radius against the nearest safe-state, zero without one.
fn reference_ranges(map: &StateMap) -> Vec<(usize, ViolationRange)> {
    let safe: Vec<Point2> = map
        .iter()
        .filter(|e| e.kind() == StateKind::Safe)
        .map(|e| e.point())
        .collect();
    map.iter()
        .enumerate()
        .filter(|(_, e)| e.kind() == StateKind::Violation)
        .map(|(i, e)| {
            let d = safe
                .iter()
                .map(|s| e.point().distance(*s))
                .min_by(f64::total_cmp)
                .unwrap_or(0.0);
            let radius = rayleigh_radius(d, map.coordinate_scale());
            (i, ViolationRange::new(e.point(), radius))
        })
        .collect()
}

/// The nearest-centred range containing `probe` (first wins a tie).
fn reference_containing(ranges: &[(usize, ViolationRange)], probe: Point2) -> Option<usize> {
    ranges
        .iter()
        .filter(|(_, r)| r.contains(probe))
        .min_by(|(_, a), (_, b)| {
            a.center()
                .distance(probe)
                .total_cmp(&b.center().distance(probe))
        })
        .map(|&(i, _)| i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Rayleigh radius never reaches the nearest safe state (R < d for
    /// d > 0) and never goes negative.
    #[test]
    fn rayleigh_radius_is_bounded(d in 0.0f64..100.0, c in 0.001f64..100.0) {
        let r = rayleigh_radius(d, c);
        prop_assert!(r >= 0.0);
        if d > 0.0 {
            prop_assert!(r < d);
        }
        // Never exceeds the peak value c·e^{-1/2}.
        prop_assert!(r <= c * (-0.5f64).exp() + 1e-12);
    }

    /// Range containment is consistent with the distance to the centre.
    #[test]
    fn range_containment_matches_the_distance_to_the_centre(
        center in point_strategy(),
        radius in 0.0f64..5.0,
        probe in point_strategy(),
    ) {
        let range = ViolationRange::new(center, radius);
        prop_assert_eq!(
            range.contains(probe),
            center.distance(probe) - range.radius() <= 1e-12
        );
    }

    /// A map built from arbitrary visit/mark sequences keeps its
    /// bookkeeping consistent, and every violation-range excludes the
    /// nearest safe state.
    #[test]
    fn state_map_invariants(
        points in prop::collection::vec(point_strategy(), 1..30),
        violation_mask in prop::collection::vec(any::<bool>(), 1..30),
        scale in 0.01f64..10.0,
    ) {
        let mut map = StateMap::new();
        map.set_coordinate_scale(scale).unwrap();
        for (i, p) in points.iter().enumerate() {
            map.visit(i, *p, ExecutionMode::CoLocated, i as u64).unwrap();
        }
        for (i, &v) in violation_mask.iter().take(points.len()).enumerate() {
            if v {
                map.mark_violation(i).unwrap();
            }
        }
        prop_assert_eq!(map.len(), points.len());
        let marked = (0..map.len())
            .filter(|&i| map.entry(i).unwrap().kind() == StateKind::Violation)
            .count();
        prop_assert_eq!(map.violation_count(), marked);

        for i in 0..map.len() {
            let e = map.entry(i).unwrap();
            if e.kind() != StateKind::Violation {
                continue;
            }
            let range = map.violation_range(i).unwrap();
            if let Some((_, d)) = map.nearest_safe(e.point()) {
                prop_assert!(range.radius() < d + 1e-9,
                    "range swallows the nearest safe state");
            } else {
                prop_assert_eq!(range.radius(), 0.0);
            }
            // The violation state is always inside its own range.
            prop_assert!(range.contains(e.point()));
        }
    }

    /// After every step of a random interleaving of `visit` (appending,
    /// moving, and rewriting an unchanged position), `set_position`,
    /// `mark_violation` and `set_coordinate_scale`, every range query
    /// agrees with a from-scratch scan of the entries.
    #[test]
    fn range_query_matches_exhaustive_scan(
        ops in prop::collection::vec(
            (0u8..6, 0usize..64, grid_point_strategy(), 0.0f64..3.0),
            1..40,
        ),
        probes in prop::collection::vec(grid_point_strategy(), 1..6),
    ) {
        let mut map = StateMap::new();
        for (step, &(kind, index, point, scale)) in ops.iter().enumerate() {
            let len = map.len();
            match kind {
                _ if len == 0 => map.visit(0, point, ExecutionMode::CoLocated, 0).unwrap(),
                0 => map
                    .visit(index % (len + 1), point, ExecutionMode::CoLocated, step as u64)
                    .unwrap(),
                1 => {
                    let unchanged = map.entry(index % len).unwrap().point();
                    map.visit(index % len, unchanged, ExecutionMode::CoLocated, step as u64)
                        .unwrap();
                }
                2 => map.set_position(index % len, point).unwrap(),
                3 | 4 => map.mark_violation(index % len).unwrap(),
                _ => map.set_coordinate_scale(scale).unwrap(),
            }

            let reference = reference_ranges(&map);
            let listed = map.violation_ranges();
            prop_assert_eq!(listed.len(), reference.len());
            for (&(i, range), &got) in reference.iter().zip(&listed) {
                prop_assert_eq!(got, range);
                prop_assert_eq!(map.violation_range(i).unwrap(), range);
            }
            // Zero-radius ranges contain only their centre, so the entries'
            // own positions are the probes that find them.
            let centres: Vec<Point2> = map.iter().map(|e| e.point()).collect();
            for &probe in probes.iter().chain(&centres) {
                let want = reference_containing(&reference, probe);
                prop_assert_eq!(map.violation_range_containing(probe), want);
                prop_assert_eq!(map.in_violation_range(probe), want.is_some());
            }
        }
    }

    /// Templates round-trip arbitrary contents through JSON bit-exactly.
    #[test]
    fn template_json_roundtrip(
        vectors in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 4..=4),
            1..20,
        ),
        flags in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let mut t = Template::new("prop", 4).unwrap();
        for (v, f) in vectors.iter().zip(&flags) {
            t.push(v.clone(), *f).unwrap();
        }
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Template::load(buf.as_slice()).unwrap();
        prop_assert_eq!(t, back);
    }

    /// The SVG renderer emits structurally sane documents for any map.
    #[test]
    fn svg_is_well_formed_for_any_map(
        points in prop::collection::vec(point_strategy(), 0..15),
        mark_first in any::<bool>(),
    ) {
        let mut map = StateMap::new();
        map.set_coordinate_scale(1.0).unwrap();
        for (i, p) in points.iter().enumerate() {
            map.visit(i, *p, ExecutionMode::Idle, 0).unwrap();
        }
        if mark_first && !points.is_empty() {
            map.mark_violation(0).unwrap();
        }
        let svg = MapRenderer::new(&map, 320, 240).render();
        prop_assert!(svg.starts_with("<svg"));
        prop_assert!(svg.trim_end().ends_with("</svg>"));
        prop_assert_eq!(svg.matches("<circle").count() >= points.len(), true);
    }
}
