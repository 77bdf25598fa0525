//! Telemetry plane — replay-vs-live overhead.
//!
//! A recorded trace must be a cheap substitute for the simulator: replay
//! skips the contention physics and the observation-noise RNG, paying
//! only JSONL decode. This target measures three full closed loops over
//! the same scenario — live simulation, live simulation with a recording
//! tee, and trace replay — so the tee's overhead and the replay speedup
//! are both visible. The recorded controller run is also asserted
//! bit-identical to the live one (the record→replay contract). Beside the
//! loops, the `encode` / `decode` arms time the observation-line codec
//! alone over the same recorded lines and print ns per line and MB/s.

use criterion::{criterion_group, criterion_main, Criterion};
use stayaway_bench::{run, stayaway};
use stayaway_core::ControllerConfig;
use stayaway_sim::scenario::Scenario;
use stayaway_sim::SimSource;
use stayaway_telemetry::{
    decode_observation, drive, encode_observation, Observation, RecordingSource, TraceSource,
};
use std::time::Instant;

const TICKS: u64 = 256;

/// Timed passes per codec arm; the fastest one is reported.
const CODEC_PASSES: usize = 200;

fn scenario() -> Scenario {
    Scenario::vlc_with_cpubomb(91)
}

/// Records one live run into an in-memory JSONL trace.
fn record_trace() -> Vec<u8> {
    let sc = scenario();
    let harness = sc.build_harness().expect("harness");
    let mut recorder = RecordingSource::new(SimSource::new(harness), Vec::new()).expect("recorder");
    let mut controller = stayaway(&sc, ControllerConfig::default());
    drive(&mut recorder, &mut controller, TICKS).expect("recorded run");
    let (_, writer) = recorder.finish().expect("finish trace");
    writer
}

/// Times `pass` — one walk over every observation line of the trace —
/// and prints the fastest pass as ns per line and MB/s of line text.
fn report_codec(arm: &str, lines: usize, bytes: usize, mut pass: impl FnMut()) {
    let best = (0..CODEC_PASSES)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "telemetry/{arm}: {:.0} ns/line, {:.0} MB/s ({lines} lines, {bytes} bytes)",
        best * 1e9 / lines as f64,
        bytes as f64 / best / 1e6
    );
}

fn bench_codec(trace: &[u8]) {
    let text = std::str::from_utf8(trace).expect("traces are utf-8");
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let bytes: usize = lines.iter().map(|line| line.len()).sum();
    let observations: Vec<Observation> = lines
        .iter()
        .map(|line| decode_observation(line).expect("recorded line decodes"))
        .collect();

    let mut line = String::new();
    report_codec("encode", lines.len(), bytes, || {
        for observation in &observations {
            line.clear();
            encode_observation(&mut line, std::hint::black_box(observation));
            std::hint::black_box(&line);
        }
    });
    report_codec("decode", lines.len(), bytes, || {
        for line in &lines {
            std::hint::black_box(decode_observation(std::hint::black_box(line)))
                .expect("recorded line decodes");
        }
    });
}

fn bench_replay_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);

    // Sanity: the recorded run reproduces the live run bit-for-bit.
    let sc = scenario();
    let live = run(&sc, stayaway(&sc, ControllerConfig::default()), TICKS);
    let trace = record_trace();
    let mut replay_source = TraceSource::new(trace.as_slice()).expect("trace header");
    let mut replay_ctl = stayaway(&sc, ControllerConfig::default());
    drive(&mut replay_source, &mut replay_ctl, TICKS).expect("replayed run");
    assert_eq!(
        live.policy.stats(),
        replay_ctl.stats(),
        "replay must reproduce the live controller"
    );

    group.bench_function("live_sim_loop", |b| {
        b.iter(|| {
            let sc = scenario();
            let out = run(&sc, stayaway(&sc, ControllerConfig::default()), TICKS);
            std::hint::black_box(out.outcome);
        });
    });

    group.bench_function("recorded_sim_loop", |b| {
        b.iter(|| {
            let out = record_trace();
            std::hint::black_box(out);
        });
    });

    group.bench_function("trace_replay_loop", |b| {
        b.iter(|| {
            let sc = scenario();
            let mut source = TraceSource::new(trace.as_slice()).expect("trace header");
            let mut controller = stayaway(&sc, ControllerConfig::default());
            let out = drive(&mut source, &mut controller, TICKS).expect("replayed run");
            std::hint::black_box(out);
        });
    });

    group.finish();
    bench_codec(&trace);
}

criterion_group!(benches, bench_replay_overhead);
criterion_main!(benches);
