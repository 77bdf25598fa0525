//! §4 overhead — "the SMACOF algorithm … solves a quadratic form
//! iteratively and can become computationally expensive as the number of
//! samples increase": measures embedding cost vs sample-set size — cold
//! start, the warm-started global solve a new state costs when it does not
//! fit the map, and the single-point placement it costs when it does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_mds::distance::DistanceMatrix;
use stayaway_mds::smacof::{warm_start_with_new_points, Smacof};

fn synthetic_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect()
}

fn bench_cold_embed(c: &mut Criterion) {
    let mut group = c.benchmark_group("smacof_cold_embed");
    group.sample_size(10);
    for &n in &[25usize, 50, 100, 200] {
        let vectors = synthetic_vectors(n, 10, 1);
        let dissim = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        group.bench_with_input(BenchmarkId::from_parameter(n), &dissim, |b, d| {
            let solver = Smacof::new(2).max_iterations(20);
            b.iter(|| solver.embed(std::hint::black_box(d)).expect("embeds"));
        });
    }
    group.finish();
}

fn bench_incremental_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("smacof_incremental_add_point");
    group.sample_size(10);
    for &n in &[25usize, 50, 100, 200] {
        // Pre-embed n points; measure adding one more with warm start.
        let mut vectors = synthetic_vectors(n, 10, 2);
        let dissim = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        let solver = Smacof::new(2).max_iterations(20);
        let prev = solver.embed(&dissim).expect("embeds");
        vectors.push(synthetic_vectors(1, 10, 3).pop().expect("one"));
        let grown = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        group.bench_with_input(BenchmarkId::from_parameter(n), &grown, |b, d| {
            b.iter(|| {
                let init =
                    warm_start_with_new_points(&prev, std::hint::black_box(d)).expect("warm start");
                solver.embed_warm(d, init).expect("embeds")
            });
        });
    }
    group.finish();
}

/// One new state on a formed map of n points, both arms of the mapping
/// engine's gate from the same warm start: the O(n)-per-round placement
/// every new state gets, and the O(n²)-per-sweep global solve only a
/// misfit goes on to.
fn bench_new_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("smacof_new_state");
    group.sample_size(10);
    for &n in &[64usize, 150, 400] {
        let mut vectors = synthetic_vectors(n, 10, 4);
        let dissim = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        let solver = Smacof::new(2).max_iterations(20);
        let prev = solver.embed(&dissim).expect("embeds");
        vectors.push(synthetic_vectors(1, 10, 5).pop().expect("one"));
        let grown = DistanceMatrix::from_vectors(&vectors).expect("matrix");
        let init = warm_start_with_new_points(&prev, &grown).expect("warm start");
        group.bench_with_input(BenchmarkId::new("place_point", n), &grown, |b, d| {
            b.iter(|| {
                let mut config = init.clone();
                solver
                    .place_last(std::hint::black_box(d), &mut config)
                    .expect("places")
            });
        });
        group.bench_with_input(BenchmarkId::new("warm_solve", n), &grown, |b, d| {
            b.iter(|| {
                solver
                    .embed_warm(std::hint::black_box(d), init.clone())
                    .expect("embeds")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_embed,
    bench_incremental_step,
    bench_new_state
);
criterion_main!(benches);
