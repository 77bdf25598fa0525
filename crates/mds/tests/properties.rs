//! Property-based tests for the MDS pipeline invariants.

use proptest::prelude::*;
use stayaway_mds::classical::classical_mds;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::{DistanceMatrix, Metric};
use stayaway_mds::landmark::{select_landmarks, LandmarkMds};
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::{align_to_previous, prefix_rmsd};
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};

fn vectors_strategy(max_points: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, dim..=dim), 2..max_points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SMACOF never yields worse stress than its classical-MDS seed.
    #[test]
    fn smacof_improves_on_classical_seed(vectors in vectors_strategy(12, 4)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let seed = classical_mds(&d, 2).unwrap();
        let seed_stress = seed.raw_stress(&d).unwrap();
        let out = Smacof::new(2).embed_warm(&d, seed).unwrap();
        let out_stress = out.raw_stress(&d).unwrap();
        prop_assert!(out_stress <= seed_stress + 1e-9,
            "smacof worsened stress {seed_stress} -> {out_stress}");
    }

    /// Embedding coordinates are always finite.
    #[test]
    fn embedding_is_finite(vectors in vectors_strategy(10, 5)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        for p in e.iter() {
            prop_assert!(p.iter().all(|v| v.is_finite()));
        }
    }

    /// Procrustes alignment is an isometry: pairwise embedded distances are
    /// preserved exactly (up to float error).
    #[test]
    fn procrustes_preserves_pairwise_distances(vectors in vectors_strategy(10, 3)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let a = Smacof::new(2).embed(&d).unwrap();
        // Align a to itself rotated by construction: use classical seed as
        // the "previous" frame.
        let prev = classical_mds(&d, 2).unwrap();
        let aligned = align_to_previous(a.clone(), &prev).unwrap();
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                prop_assert!((aligned.distance(i, j) - a.distance(i, j)).abs() < 1e-7);
            }
        }
    }

    /// Aligning an embedding to itself is (numerically) the identity.
    #[test]
    fn procrustes_self_alignment_is_identity(vectors in vectors_strategy(9, 3)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        let aligned = align_to_previous(e.clone(), &e).unwrap();
        prop_assert!(prefix_rmsd(&aligned, &e, e.len()) < 1e-7);
    }

    /// Every deduplicated vector stays within epsilon of its representative.
    #[test]
    fn dedup_coverage(
        vectors in vectors_strategy(40, 3),
        epsilon in 0.01f64..0.5,
    ) {
        let mut set = ReprSet::new(epsilon).unwrap();
        for v in &vectors {
            let out = set.insert(v).unwrap();
            let d = Metric::Euclidean.distance(set.representative(out.index()), v);
            prop_assert!(d <= epsilon + 1e-12);
        }
        prop_assert_eq!(set.total_inserted(), vectors.len() as u64);
    }

    /// Representatives are mutually separated by more than epsilon... not in
    /// general (greedy insertion), but each new representative is > epsilon
    /// from all representatives existing at its insertion time. We verify
    /// the weaker global invariant: representative count never exceeds input
    /// count and is at least 1.
    #[test]
    fn dedup_compresses(vectors in vectors_strategy(30, 2)) {
        let mut set = ReprSet::new(0.3).unwrap();
        for v in &vectors {
            set.insert(v).unwrap();
        }
        prop_assert!(!set.is_empty());
        prop_assert!(set.len() <= vectors.len());
    }

    /// Normalised values always land in [0, 1].
    #[test]
    fn normalizer_output_in_unit_interval(
        values in prop::collection::vec(-1000.0f64..1000.0, 4),
    ) {
        let n = Normalizer::new(vec![
            MetricBounds::zero_to(400.0).unwrap(),
            MetricBounds::zero_to(8192.0).unwrap(),
            MetricBounds::new(-100.0, 100.0).unwrap(),
            MetricBounds::zero_to(1.0).unwrap(),
        ]).unwrap();
        let out = n.normalize(&values).unwrap();
        for v in out {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    /// Classical MDS of points that already live in 2-D reproduces their
    /// pairwise distances (stress ≈ 0).
    #[test]
    fn classical_mds_is_exact_on_planar_data(vectors in vectors_strategy(10, 2)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let e = classical_mds(&d, 2).unwrap();
        prop_assert!(e.stress(&d).unwrap() < 1e-6);
    }

    /// Warm start preserves the prefix coordinates exactly before the solver
    /// runs.
    #[test]
    fn warm_start_preserves_prefix(vectors in vectors_strategy(8, 3)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let e = Smacof::new(2).embed(&d).unwrap();
        let mut grown = vectors.clone();
        grown.push(vec![0.5, 0.5, 0.5]);
        let d2 = DistanceMatrix::from_vectors(&grown).unwrap();
        let init = warm_start_with_new_points(&e, &d2).unwrap();
        prop_assert!(prefix_rmsd(&init, &e, e.len()) < 1e-12);
        prop_assert_eq!(init.len(), grown.len());
    }

    /// Landmark selection returns distinct indices within bounds, and the
    /// fitted placement keeps planar data's stress low.
    #[test]
    fn landmark_placement_on_planar_data(vectors in vectors_strategy(40, 2), k in 4usize..10) {
        let idx = select_landmarks(&vectors, k);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len());
        prop_assert!(idx.iter().all(|&i| i < vectors.len()));

        if idx.len() >= 3 {
            let lmds = LandmarkMds::fit(&vectors, k, 2).unwrap();
            let placed = lmds.place_all(&vectors).unwrap();
            let d = DistanceMatrix::from_vectors(&vectors).unwrap();
            prop_assert!(placed.stress(&d).unwrap() < 0.05,
                "landmark stress too high on planar data");
        }
    }

    /// The grid-indexed dedup path is an exact drop-in for the naive linear
    /// scan: identical insert outcomes and identical `(index, distance)`
    /// from `nearest`, for every query — including ones far outside the
    /// indexed region (ring expansion).
    #[test]
    fn grid_index_is_exact_drop_in_for_linear_scan(
        vectors in vectors_strategy(60, 4),
        epsilon in 0.01f64..0.5,
        probe_shift in -2.0f64..2.0,
    ) {
        let mut naive = ReprSet::new(epsilon).unwrap();
        let mut grid = ReprSet::new(epsilon).unwrap().grid_indexed();
        for v in &vectors {
            let a = naive.insert(v).unwrap();
            let b = grid.insert(v).unwrap();
            prop_assert_eq!((a.index(), a.is_new()), (b.index(), b.is_new()));
            // Exact equality: both paths judge candidates by the same
            // full-precision distances.
            prop_assert_eq!(naive.nearest(v), grid.nearest(v));
        }
        for v in &vectors {
            let probe: Vec<f64> = v.iter().map(|x| x + probe_shift).collect();
            prop_assert_eq!(naive.nearest(&probe), grid.nearest(&probe));
        }
    }

    /// Growing a distance matrix column-by-column with `append_point`
    /// matches a from-scratch rebuild on every prefix.
    #[test]
    fn append_point_matches_full_rebuild_on_every_prefix(
        vectors in vectors_strategy(20, 3),
    ) {
        let mut grown = DistanceMatrix::from_vectors(&vectors[..1]).unwrap();
        for m in 1..vectors.len() {
            grown.append_point(&vectors[..m], &vectors[m]).unwrap();
            let rebuilt = DistanceMatrix::from_vectors(&vectors[..=m]).unwrap();
            prop_assert_eq!(grown.len(), rebuilt.len());
            for i in 0..grown.len() {
                for j in 0..grown.len() {
                    prop_assert!((grown.get(i, j) - rebuilt.get(i, j)).abs() < 1e-12,
                        "entry ({}, {}) diverged", i, j);
                }
            }
        }
    }

    /// The distance matrix is a metric-space certificate: symmetric,
    /// non-negative, zero diagonal, triangle inequality (Euclidean input).
    #[test]
    fn distance_matrix_triangle_inequality(vectors in vectors_strategy(8, 3)) {
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let n = d.len();
        for i in 0..n {
            for j in 0..n {
                prop_assert!(d.get(i, j) >= 0.0);
                prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
                for k in 0..n {
                    prop_assert!(d.get(i, j) <= d.get(i, k) + d.get(k, j) + 1e-9);
                }
            }
        }
    }
}
