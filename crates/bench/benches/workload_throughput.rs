//! Throughput pin for the request-driven workload engine.
//!
//! The event engine must sustain at least one million
//! simulated requests per second of wall time, or the larger scenario
//! sweeps (`stayaway bench-scenarios`, fleet workload cells) stop being
//! interactive. The bench measures end-to-end engine speed — arrival
//! sampling, dispatch, contention accounting, completion, latency
//! recording — under an uncontrolled policy, then asserts the floor.

use criterion::{criterion_group, criterion_main, Criterion};
use stayaway_telemetry::{drive, NullPolicy};
use stayaway_workload::{by_name, ArrivalProcess, WorkloadScenario, WorkloadSource};
use std::time::Instant;

/// Requests the engine must simulate per second of wall time.
const FLOOR_RPS: f64 = 1_000_000.0;

/// memcached-like cranked to a firehose arrival rate: same event volume
/// per request, enough pool headroom that dispatch stays on the warm
/// path most of the time (the representative regime).
fn firehose(rps: f64) -> WorkloadScenario {
    let mut s = by_name("memcached-like").expect("library scenario");
    s.tenants[0].arrival = ArrivalProcess::Poisson { rps };
    s.tenants[0].demand.concurrency = 64;
    s.tenants[0].demand.max_containers = 8;
    s.tenants[0].demand.queue_cap = 8192;
    s
}

/// Drives `ticks` simulated seconds and returns the arrivals processed.
fn simulate(rps: f64, ticks: u64) -> u64 {
    let mut source = WorkloadSource::new(firehose(rps), 7).expect("valid scenario");
    drive(&mut source, &mut NullPolicy::new(), ticks).expect("drive");
    source.totals().arrivals
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_throughput");
    group.sample_size(10);
    group.bench_function("drive_10_ticks_200k_rps", |b| {
        b.iter(|| simulate(200_000.0, 10))
    });
    group.finish();

    // The pin itself: one timed pass, generous to CI noise (the engine
    // clears the floor by a wide margin on anything modern).
    let start = Instant::now();
    let arrivals = simulate(200_000.0, 10);
    let elapsed = start.elapsed().as_secs_f64();
    let rate = arrivals as f64 / elapsed;
    println!(
        "workload_throughput/pin: {arrivals} requests in {elapsed:.3}s = {:.2}M req/s",
        rate / 1e6
    );
    assert!(
        rate >= FLOOR_RPS,
        "engine fell below {FLOOR_RPS:.0} simulated requests/sec: {rate:.0}"
    );
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
