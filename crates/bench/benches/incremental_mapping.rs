//! The incrementally maintained mapping plane vs its naive references.
//!
//! Three timed groups over the mapping-bound hot path (ROADMAP `[ledger]` (e)
//! decides whether it stays a timed target or becomes a counted metric):
//!
//! * `smacof_solve` — `SWEEPS` majorization sweeps on fixed 64 / 150 /
//!   400-point dissimilarity matrices, warm-started from one precomputed
//!   classical seed so the timing isolates the sweep kernel
//!   (`tolerance(0.0)` pins every arm at exactly `SWEEPS` sweeps): the
//!   solver's fused triangular pass (each pair's distance evaluated once,
//!   feeding stress and Guttman update together) against the test-only
//!   reference formulation it replaced (`crates/mds/tests/reference`: row
//!   sums over the full n × n plus a separate stress pass per sweep).
//!   Both arms are asserted bit-identical before anything is timed.
//! * `matrix_maintenance_512` — growing the 512-point distance matrix one
//!   representative at a time: from-scratch rebuilds (the naive baseline)
//!   vs incremental column appends. The rebuild-vs-append gap carries the
//!   ≥10× matrix-maintenance claim.
//! * `mapping_bound_path_128` — the per-period mapping plane end to end.
//!   The naive arm is the paper's literal §2.2 pipeline run every period:
//!   rebuild the distance matrix from scratch and solve from a fresh
//!   classical-MDS seed. The incremental arm is the plane the engine
//!   actually runs: column append + warm-started sweep. Both arms run one
//!   majorization sweep per period, so the gap is the maintenance
//!   machinery itself; it carries the end-to-end ≥10× claim.

#[path = "../../mds/tests/reference/mod.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_mds::classical::classical_mds;
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};

const N_MATRIX: usize = 512;
const N_PATH: usize = 128;
/// Map sizes of the solve group: one row chunk of the old sweep, a formed
/// `host-steady` map, and the `max_states` ceiling.
const N_SOLVE: [usize; 3] = [64, 150, 400];
/// Sweeps per solve in the solve group (`tolerance(0.0)` keeps every arm
/// at exactly this count) — about what a warm-started re-embed runs.
const SWEEPS: usize = 12;

/// Deterministic pseudo-random measurement vectors in `[0, 1]^dim`.
fn vectors(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x4d41_5050);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0f64..1.0)).collect())
        .collect()
}

fn bench_incremental_mapping(c: &mut Criterion) {
    let pts = vectors(N_MATRIX, 10);

    let solver = Smacof::new(2).max_iterations(SWEEPS).tolerance(0.0);
    let mut group = c.benchmark_group("smacof_solve");
    group.sample_size(10);
    for n in N_SOLVE {
        let dissim = DistanceMatrix::from_vectors(&pts[..n]).expect("matrix");
        // One classical seed shared by both arms: the expensive O(n³)
        // eigensolve happens once, outside all timings.
        let seed = classical_mds(&dissim, 2).expect("seed");
        let fused = solver.embed_warm(&dissim, seed.clone()).expect("embed");
        let (expected, _) = reference::embed_warm_traced(&dissim, seed.clone(), SWEEPS, 0.0);
        assert_eq!(
            reference::bits(&fused),
            reference::bits(&expected),
            "fused kernel diverged from the reference at n = {n}"
        );
        group.bench_with_input(BenchmarkId::new("fused", n), &dissim, |b, d| {
            b.iter(|| {
                solver
                    .embed_warm(std::hint::black_box(d), seed.clone())
                    .expect("embed")
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &dissim, |b, d| {
            b.iter(|| {
                reference::embed_warm_traced(std::hint::black_box(d), seed.clone(), SWEEPS, 0.0)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("matrix_maintenance_512");
    group.sample_size(10);
    group.bench_function("full_rebuild_baseline", |b| {
        b.iter(|| {
            let mut last = 0.0;
            for m in 2..=pts.len() {
                let d =
                    DistanceMatrix::from_vectors(std::hint::black_box(&pts[..m])).expect("matrix");
                last = d.get(0, m - 1);
            }
            last
        });
    });
    group.bench_function("incremental_append_serial", |b| {
        b.iter(|| {
            let mut d =
                DistanceMatrix::from_vectors(std::hint::black_box(&pts[..2])).expect("matrix");
            for m in 2..pts.len() {
                d.append_point(&pts[..m], &pts[m]).expect("append");
            }
            d.get(0, pts.len() - 1)
        });
    });
    group.finish();

    // End-to-end per-period mapping plane, one sweep per new point.
    let path_pts = &pts[..N_PATH];
    let mut group = c.benchmark_group("mapping_bound_path_128");
    group.sample_size(10);
    group.bench_function("naive_per_period_full_mds", |b| {
        // The paper's literal pipeline every period: full matrix rebuild
        // plus a fresh classical seed for the solve.
        let s = Smacof::new(2).max_iterations(1).tolerance(0.0);
        b.iter(|| {
            let mut x = 0.0;
            for m in 2..=path_pts.len() {
                let dissim = DistanceMatrix::from_vectors(std::hint::black_box(&path_pts[..m]))
                    .expect("matrix");
                let e = s.embed(&dissim).expect("embed");
                x = e.xy(0).0;
            }
            x
        });
    });
    group.bench_function("incremental_plane", |b| {
        // Column append + warm-started global solve — the engine's work
        // for a state that does not fit its map (one that fits is placed
        // in O(n): `smacof_scaling`'s `place_point` arm).
        let s = Smacof::new(2).max_iterations(1).tolerance(0.0);
        b.iter(|| {
            let mut dissim =
                DistanceMatrix::from_vectors(std::hint::black_box(&path_pts[..2])).expect("matrix");
            let mut embedding = s.embed(&dissim).expect("embed");
            for m in 2..path_pts.len() {
                dissim
                    .append_point(&path_pts[..m], &path_pts[m])
                    .expect("append");
                let init = warm_start_with_new_points(&embedding, &dissim).expect("warm start");
                embedding = s.embed_warm(&dissim, init).expect("embed warm");
            }
            embedding.xy(0).0
        });
    });
    group.finish();
}

criterion_group!(benches, bench_incremental_mapping);
criterion_main!(benches);
