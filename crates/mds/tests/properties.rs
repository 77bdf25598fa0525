//! Property-based tests for the MDS pipeline invariants.

use proptest::prelude::*;
use stayaway_mds::classical::classical_mds;
use stayaway_mds::dedup::ReprSet;
use stayaway_mds::distance::{DistanceMatrix, Metric};
use stayaway_mds::normalize::{MetricBounds, Normalizer};
use stayaway_mds::procrustes::{align_to_previous, prefix_rmsd};
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};
use stayaway_mds::Embedding;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations, so a test can show that a loop
/// allocates nothing however often it runs.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer with no destructor, so touching
// it neither allocates nor outlives its thread.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

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

/// `vectors` with all but the last embedded by a full solve in `dim`
/// dimensions and the last given the controller's warm start.
fn grown_by_one(vectors: &[Vec<f64>], dim: usize) -> (DistanceMatrix, Embedding) {
    let head = DistanceMatrix::from_vectors(&vectors[..vectors.len() - 1]).unwrap();
    let prev = Smacof::new(dim).embed(&head).unwrap();
    let d = DistanceMatrix::from_vectors(vectors).unwrap();
    let start = warm_start_with_new_points(&prev, &d).unwrap();
    (d, start)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-point placement is a majorization too: one more round never
    /// raises the placed point's column stress, no other point moves, and
    /// the same input gives the same bits — in 1, 2 and 3 dimensions.
    #[test]
    fn placement_rounds_never_raise_the_column_stress(
        vectors in vectors_strategy(14, 4),
        dim in 1usize..=3,
    ) {
        let (d, start) = grown_by_one(&vectors, dim);
        let fixed = start.len() - 1;
        let mut last = f64::INFINITY;
        for rounds in 0..12 {
            // A tolerance nothing is below: exactly `rounds` rounds run.
            let solver = Smacof::new(dim).max_iterations(rounds).tolerance(f64::NEG_INFINITY);
            let mut config = start.clone();
            let stress = solver.place_last(&d, &mut config).unwrap();
            prop_assert!(stress.is_finite());
            prop_assert!(stress <= last + 1e-12,
                "round {} raised the column stress {} -> {}", rounds, last, stress);
            last = stress;
            prop_assert!(prefix_rmsd(&config, &start, fixed) == 0.0, "a fixed point moved");
            let mut again = start.clone();
            prop_assert_eq!(solver.place_last(&d, &mut again).unwrap().to_bits(), stress.to_bits());
            prop_assert_eq!(again, config);
        }
    }

    /// Degenerate columns stay finite: the new vector an exact duplicate of
    /// an old one or 1e-13 away from it, started on top of a fixed point
    /// with no nudge at all.
    #[test]
    fn placement_survives_duplicates_and_coincident_starts(
        vectors in vectors_strategy(10, 3),
        twin in 0usize..8,
        gap in prop::sample::select(vec![0.0, 1e-13]),
        dim in 1usize..=3,
    ) {
        let twin = twin % vectors.len();
        let mut grown = vectors.clone();
        let mut copy = vectors[twin].clone();
        copy[0] += gap;
        grown.push(copy);
        let (d, mut config) = grown_by_one(&grown, dim);
        let onto = config.point(twin).to_vec();
        let p = config.len() - 1;
        config.point_mut(p).copy_from_slice(&onto);
        let start = config.clone();
        let stress = Smacof::new(dim).place_last(&d, &mut config).unwrap();
        prop_assert!(stress.is_finite());
        prop_assert!(config.iter().all(|x| x.iter().all(|v| v.is_finite())));
        let mut again = start;
        prop_assert_eq!(Smacof::new(dim).place_last(&d, &mut again).unwrap().to_bits(), stress.to_bits());
        prop_assert_eq!(again, config);
    }
}

/// One allocation-free pass per round: 200 rounds allocate exactly what one
/// round does — the call's single scratch point, which also shows the
/// counter counts.
#[test]
fn placement_allocates_nothing_per_round() {
    let vectors: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let t = i as f64;
            vec![
                (t * 0.37).sin(),
                (t * 0.61).cos(),
                t * 0.02,
                (t * 0.11).sin(),
            ]
        })
        .collect();
    for dim in 1..=3 {
        let (d, start) = grown_by_one(&vectors, dim);
        let count = |rounds: usize| {
            let solver = Smacof::new(dim)
                .max_iterations(rounds)
                .tolerance(f64::NEG_INFINITY);
            let mut config = start.clone();
            let before = allocations();
            solver.place_last(&d, &mut config).unwrap();
            allocations() - before
        };
        assert_eq!((count(1), count(200)), (1, 1), "dim {dim}: rounds allocate");
    }
}

/// A point whose dissimilarities are exact planar distances to a map that
/// is itself exact has one position with zero column stress, and placement
/// started beside the nearest neighbour finds it.
#[test]
fn placement_recovers_a_planar_point() {
    let anchors: Vec<Vec<f64>> = (0..16)
        .map(|i| vec![(i % 4) as f64 * 0.25, (i / 4) as f64 * 0.25])
        .collect();
    let solver = Smacof::new(2).max_iterations(300).tolerance(1e-14);
    for target in [
        [0.31, 0.52],
        [0.05, 0.9],
        [0.74, 0.11],
        [1.2, 0.4],
        [0.5, 0.5],
    ] {
        let mut vectors = anchors.clone();
        vectors.push(target.to_vec());
        let d = DistanceMatrix::from_vectors(&vectors).unwrap();
        let exact = Embedding::from_coords(2, anchors.concat()).unwrap();
        let mut config = warm_start_with_new_points(&exact, &d).unwrap();
        let stress = solver.place_last(&d, &mut config).unwrap();
        let (x, y) = config.xy(16);
        assert!(
            (x - target[0]).hypot(y - target[1]) < 1e-6 && stress < 1e-6,
            "target {target:?} placed at ({x}, {y}), column stress {stress}"
        );
    }
}
