//! The SMACOF solver against the test-only reference formulation
//! (`reference/mod.rs`): same `Embedding` **bits**, same sweep count and
//! the same reported stresses, for cold and warm starts, degenerate inputs
//! and every way the loop can stop. Golden fixtures and ledger digests
//! downstream rest on this.

mod reference;

use proptest::prelude::*;
use reference::bits;
use stayaway_mds::classical::classical_mds;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof, SolveTrace};
use stayaway_mds::Embedding;

/// Deterministic uniform `[0, 1)` stream (splitmix64) so a failing case is
/// reproducible from the `(n, dim, seed)` the harness prints.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` rows of width `dim`. Every fifth row is an exact copy of an earlier
/// one and every seventh sits 1e-13 from an earlier one — as measurement
/// vectors that yields zero and near-zero dissimilarities, as a starting
/// configuration coincident and near-coincident embedded points (both
/// sides of the solver's 1e-12 clamp).
fn degenerate_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Stream(seed);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = if i > 0 && i % 5 == 0 {
            rows[(rng.next() * i as f64) as usize].clone()
        } else if i > 0 && i % 7 == 0 {
            let mut r = rows[(rng.next() * i as f64) as usize].clone();
            r[0] += 1e-13;
            r
        } else {
            (0..dim).map(|_| rng.next() * 2.0 - 1.0).collect()
        };
        rows.push(row);
    }
    rows
}

fn dissimilarities(n: usize, seed: u64) -> DistanceMatrix {
    DistanceMatrix::from_vectors(&degenerate_rows(n, 4, seed)).unwrap()
}

fn configuration(n: usize, dim: usize, seed: u64) -> Embedding {
    let coords = degenerate_rows(n, dim, seed ^ 0x00c0_ffee).concat();
    Embedding::from_coords(dim, coords).unwrap()
}

/// Runs solver and reference from `init` and compares bits, sweep count
/// and reported stresses.
fn assert_same_solve(
    d: &DistanceMatrix,
    init: Embedding,
    budget: usize,
    tolerance: f64,
) -> Result<(), TestCaseError> {
    let solver = Smacof::new(init.dim())
        .max_iterations(budget)
        .tolerance(tolerance);
    let (got, trace) = solver.embed_warm_traced(d, init.clone()).unwrap();
    let (want, solve) = reference::embed_warm_traced(d, init, budget, tolerance);
    prop_assert_eq!(bits(&got), bits(&want));
    assert_same_trace(&trace, &solve, budget)
}

/// The solver's [`SolveTrace`] against the stresses the reference
/// evaluated: the start's, and the last one the solver itself computes —
/// of the returned configuration when the tolerance stopped it, of the
/// iterate before when the budget did (it skips that trailing pass).
fn assert_same_trace(
    trace: &SolveTrace,
    solve: &reference::Solve,
    budget: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(trace.sweeps, solve.sweeps);
    if budget == 0 || solve.stresses.is_empty() {
        // No pass ran.
        prop_assert_eq!(*trace, SolveTrace::default());
        return Ok(());
    }
    let sweeps = solve.sweeps as usize;
    let last = if sweeps == budget { sweeps - 1 } else { sweeps };
    prop_assert_eq!(trace.start_stress.to_bits(), solve.stresses[0].to_bits());
    prop_assert_eq!(trace.last_stress.to_bits(), solve.stresses[last].to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Warm start from an arbitrary (degenerate) configuration. `n` runs
    /// past 64 and 128, the row-chunk boundaries of the sweep this kernel
    /// replaced.
    #[test]
    fn warm_solve_matches_reference_bit_for_bit(
        n in 2usize..200,
        dim in 1usize..=3,
        seed in 0u64..1_000_000,
        budget in prop::sample::select(vec![0usize, 1, 2, 7, 25]),
        tolerance in prop::sample::select(vec![0.0, 1e-8]),
    ) {
        let d = dissimilarities(n, seed);
        assert_same_solve(&d, configuration(n, dim, seed), budget, tolerance)?;
    }

    /// The controller's per-period step: a solved map grows by a few
    /// points placed by `warm_start_with_new_points`, then is refined.
    #[test]
    fn warm_start_with_appended_points_matches_reference(
        n in 3usize..200,
        grow in 1usize..4,
        dim in 1usize..=3,
        seed in 0u64..1_000_000,
        budget in prop::sample::select(vec![1usize, 6, 30]),
        tolerance in prop::sample::select(vec![0.0, 1e-8]),
    ) {
        let rows = degenerate_rows(n, 4, seed);
        let old = n - grow.min(n - 2);
        let d_old = DistanceMatrix::from_vectors(&rows[..old]).unwrap();
        let d = DistanceMatrix::from_vectors(&rows).unwrap();
        let (prev, _) = reference::embed_warm_traced(&d_old, configuration(old, dim, seed), 5, 0.0);
        let init = warm_start_with_new_points(&prev, &d).unwrap();
        assert_same_solve(&d, init, budget, tolerance)?;
    }

    /// Cold `embed`: the classical seed, then the same solve.
    #[test]
    fn cold_embed_matches_reference_bit_for_bit(
        n in 1usize..90,
        dim in 1usize..=3,
        seed in 0u64..1_000_000,
        budget in prop::sample::select(vec![0usize, 1, 20, 300]),
        tolerance in prop::sample::select(vec![0.0, 1e-8]),
    ) {
        let d = dissimilarities(n, seed);
        let solver = Smacof::new(dim).max_iterations(budget).tolerance(tolerance);
        let seed_config = classical_mds(&d, dim).unwrap();
        let (got, trace) = solver.embed_warm_traced(&d, seed_config.clone()).unwrap();
        let (want, solve) = reference::embed_warm_traced(&d, seed_config, budget, tolerance);
        assert_same_trace(&trace, &solve, budget)?;
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(bits(&solver.embed(&d).unwrap()), bits(&want));
    }
}

/// A poisoned starting configuration makes every stress NaN; the
/// convergence test is then never true and the solve must stop at the
/// iteration budget — not earlier, not never.
#[test]
fn non_finite_stress_terminates_at_the_iteration_budget() {
    let d = dissimilarities(12, 1);
    for poison in [f64::NAN, f64::INFINITY] {
        let mut init = configuration(12, 2, 1);
        init.point_mut(3)[1] = poison;
        let (e, trace) = Smacof::new(2)
            .max_iterations(9)
            .embed_warm_traced(&d, init.clone())
            .unwrap();
        assert_eq!(trace.sweeps, 9);
        assert_eq!(e.len(), 12);
        let (_, solve) = reference::embed_warm_traced(&d, init, 9, 1e-8);
        assert_eq!(solve.sweeps, 9);
    }
}
