//! Micro-benchmarks of the per-period kernels: everything the controller
//! executes inside one control interval besides SMACOF. Keeping each of
//! these in the microsecond range is what makes the §4 overhead claim
//! (~2 % CPU on a 1 s period) trivially satisfiable.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_statespace::{ExecutionMode, Point2, StateMap};
use stayaway_trajectory::{EmpiricalDistribution, Histogram, Kde, ModePredictor, Step};

fn filled_map(n: usize, violations: usize) -> StateMap {
    let mut map = StateMap::new();
    map.set_coordinate_scale(1.0).expect("scale");
    let mut rng = StdRng::seed_from_u64(1);
    for i in 0..n {
        let p = Point2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        map.visit(i, p, ExecutionMode::CoLocated, i as u64)
            .expect("visit");
    }
    for i in 0..violations.min(n) {
        map.mark_violation(i * n / violations.max(1)).expect("mark");
    }
    map
}

fn bench_statespace_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("statespace");
    let map = filled_map(200, 20);
    let probe = Point2::new(0.1, -0.2);

    group.bench_function("nearest_safe_200", |b| {
        b.iter(|| map.nearest_safe(std::hint::black_box(probe)))
    });
    // Range *query* on a settled map against range *mutation*: the radii
    // are derived state, so the query reads them and the first query after
    // a mutation that moves a range pays the recompute.
    group.bench_function("in_violation_range_200", |b| {
        b.iter(|| map.in_violation_range(std::hint::black_box(probe)))
    });
    let mut moving = map.clone();
    let mut flip = false;
    group.bench_function("move_state_then_in_violation_range_200", |b| {
        b.iter(|| {
            flip = !flip;
            let to = if flip { 0.9 } else { -0.9 };
            moving.set_position(7, Point2::new(to, to)).expect("move");
            moving.in_violation_range(std::hint::black_box(probe))
        })
    });
    group.bench_function("rewrite_same_position_then_in_violation_range_200", |b| {
        let unchanged = moving.entry(7).expect("entry").point();
        b.iter(|| {
            moving.set_position(7, unchanged).expect("rewrite");
            moving.in_violation_range(std::hint::black_box(probe))
        })
    });
    group.bench_function("violation_ranges_200", |b| {
        b.iter(|| map.violation_ranges())
    });
    group.finish();
}

fn bench_trajectory_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("trajectory");
    let mut rng = StdRng::seed_from_u64(2);
    let samples: Vec<f64> = (0..512).map(|_| rng.gen_range(0.0..1.0)).collect();

    group.bench_function("histogram_build_512", |b| {
        b.iter(|| Histogram::auto_range(std::hint::black_box(&samples), 24).expect("histogram"))
    });
    let hist = Histogram::auto_range(&samples, 24).expect("histogram");
    group.bench_function("inverse_cdf", |b| {
        let mut u = 0.0;
        b.iter(|| {
            u = (u + 0.618) % 1.0;
            hist.inverse_cdf(std::hint::black_box(u))
        })
    });
    group.bench_function("kde_fit_512", |b| {
        b.iter(|| Kde::fit(std::hint::black_box(&samples)).expect("kde"))
    });

    let mut dist = EmpiricalDistribution::new();
    for &s in &samples {
        dist.observe(s);
    }
    group.bench_function("empirical_sample", |b| {
        b.iter(|| dist.sample(&mut rng).expect("sample"))
    });
    // The other side of the maintained histogram: an observation into a
    // full window (one eviction; a rebuild only when an extreme moves).
    group.bench_function("empirical_observe_full_window", |b| {
        b.iter(|| dist.observe(rng.gen_range(0.0..1.0)))
    });

    let mut predictor = ModePredictor::new();
    for i in 0..256 {
        predictor.observe(
            ExecutionMode::CoLocated,
            Step {
                length: 0.02 + 0.01 * ((i % 7) as f64),
                angle: 0.1 * ((i % 13) as f64 - 6.0),
            },
        );
    }
    group.bench_function("predict_5_candidates", |b| {
        b.iter(|| {
            predictor
                .predict(ExecutionMode::CoLocated, Point2::origin(), 5, &mut rng)
                .expect("prediction")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_statespace_queries, bench_trajectory_kernels);
criterion_main!(benches);
