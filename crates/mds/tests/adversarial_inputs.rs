//! Property tests for adversarial inputs at the crate boundary.
//!
//! NaN/inf observations and duplicate/coincident points surface as typed
//! [`MdsError`]s or finite embeddings, never a panic or a poisoned
//! (non-finite) configuration.

use proptest::prelude::*;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::Smacof;
use stayaway_mds::MdsError;

/// Deterministic pseudo-random point cloud parameterised by a seed.
fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|k| {
                    let t = (i * dim + k) as f64 + seed as f64 * 0.618;
                    (t * 0.37).sin() + 0.25 * (t * 1.91).cos()
                })
                .collect()
        })
        .collect()
}

proptest! {
    // Keep the count moderate so the suite stays fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn non_finite_observations_yield_typed_errors_not_panics(
        n in 1usize..40,
        poison_at in 0usize..40,
        poison in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
    ) {
        let mut pts = cloud(n, 3, 7);
        let poison_at = poison_at % n;
        pts[poison_at][0] = poison;

        let build_err = matches!(
            DistanceMatrix::from_vectors(&pts),
            Err(MdsError::NonFinite { .. })
        );
        prop_assert!(build_err, "poisoned build must return NonFinite");

        let clean = cloud(n, 3, 7);
        let mut m = DistanceMatrix::from_vectors(&clean).unwrap();
        let append_err = matches!(
            m.append_point(&clean, &pts[poison_at]),
            Err(MdsError::NonFinite { .. })
        );
        prop_assert!(append_err, "poisoned append must return NonFinite");
        // The failed append left the matrix untouched.
        prop_assert_eq!(m, DistanceMatrix::from_vectors(&clean).unwrap());

        let mut set = ReprSet::new(0.05).unwrap();
        let insert_err = matches!(set.insert(&pts[poison_at]), Err(MdsError::NonFinite { .. }));
        prop_assert!(insert_err, "poisoned dedup insert must return NonFinite");
    }

    #[test]
    fn duplicate_and_coincident_points_embed_finitely(
        n in 2usize..40,
        dup_of in 0usize..40,
    ) {
        // Duplicate an arbitrary point, then pile three exact copies of
        // point 0 on top: the guarded ratio must keep every coordinate
        // finite instead of emitting inf/NaN for the zero distances.
        let mut pts = cloud(n, 3, 3);
        pts.push(pts[dup_of % n].clone());
        pts.push(pts[0].clone());
        pts.push(pts[0].clone());
        pts.push(pts[0].clone());
        let d = DistanceMatrix::from_vectors(&pts).unwrap();
        let e = Smacof::new(2).max_iterations(10).embed(&d).unwrap();
        for p in e.iter() {
            let finite = p.iter().all(|v| v.is_finite());
            prop_assert!(finite, "embedding coordinate went non-finite");
        }
    }
}
