//! Per-tick cost of every prediction plane behind the [`Predictor`]
//! trait, inside the full staged controller on the same scenario.
//!
//! The matrix puts the reference KDE plane next to its tournament
//! competitors (xapp, denoise, last-tick) so the price of each forecast
//! strategy is visible as a multiple of the (near-free) last-tick
//! baseline rather than an absolute number. Criterion reports throughput
//! in ticks, so the per-tick figure is the reciprocal of the element
//! rate.
//!
//! Two cases per plane. `*_200_ticks` is a cold start: a handful of
//! states and trajectory windows under 200 samples, construction
//! included. `*_formed_200_ticks` warms the controller up for 3 000
//! periods outside the timed closure — the state map forms (100 to 150
//! states on this pair) and the 512-sample windows fill — and then times
//! steady periods, which is where a deployed controller lives and where
//! per-forecast cost that grows with the map or the window shows.
//!
//! [`Predictor`]: stayaway_core::predictors::Predictor

use criterion::{criterion_group, criterion_main, Criterion};
use stayaway_core::{ControllerConfig, PredictorKind};
use stayaway_fleet::PolicySpec;
use stayaway_sim::scenario::Scenario;

const TICKS: u64 = 200;
const WARM_UP_TICKS: u64 = 3_000;

fn bench_predictor_matrix(c: &mut Criterion) {
    // Twitter-analysis keeps the verify loop busy (verdicts are checked,
    // not all consumed by throttles), so every plane pays its full
    // observe + forecast + verify cost.
    let scenario = Scenario::vlc_with_twitter(42);

    let mut group = c.benchmark_group("predictor_matrix");
    group.sample_size(20);
    for kind in PredictorKind::ALL {
        let config = ControllerConfig {
            predictor: kind,
            ..ControllerConfig::default()
        };
        // Each sample is one full 200-tick run including harness and
        // controller construction; the setup cost is identical across
        // rows, so differences between rows are pure per-tick predictor
        // cost.
        group.bench_function(format!("{}_{TICKS}_ticks", kind.name()), |b| {
            b.iter(|| {
                let mut harness = scenario.build_harness().expect("scenario builds");
                let mut policy = PolicySpec::StayAway
                    .build(&config, harness.host().spec())
                    .expect("controller builds");
                harness.run(policy.as_mut(), TICKS)
            })
        });

        let mut harness = scenario.build_harness().expect("scenario builds");
        let mut policy = PolicySpec::StayAway
            .build(&config, harness.host().spec())
            .expect("controller builds");
        harness.run(policy.as_mut(), WARM_UP_TICKS);
        group.bench_function(format!("{}_formed_{TICKS}_ticks", kind.name()), |b| {
            b.iter(|| harness.run(policy.as_mut(), TICKS))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predictor_matrix);
criterion_main!(benches);
