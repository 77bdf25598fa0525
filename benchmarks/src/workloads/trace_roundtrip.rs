//! `trace-roundtrip`: tee-record a live run into memory, then replay the
//! bytes through a fresh controller. `telemetry`'s JSONL codec dominates,
//! and it is used both ways, so a format change that speeds decode and
//! slows encode shows in the same `ticks_per_s`. In memory, so the codec
//! and not the sandbox disk is measured.

use super::{
    closed_loop, controller_config, fold_stats, sub_seed, CoLocation, PassOutcome, Size, Stretch,
    Trace, Workload,
};
use crate::clock::Laps;
use crate::stats::Digest;
use crate::trace::{TracedSource, Tracer};
use stay_away::core::{Controller, ControllerStats, Observability};
use stay_away::obs::MetricsRegistry;
use stay_away::telemetry::{ObservationSource, RecordingSource, TraceSource};

/// The two cheapest co-locations: the controller does little, so the
/// codec is most of a period.
const SCENARIOS: [CoLocation; 2] = [CoLocation::VlcCpuBomb, CoLocation::VlcSoplex];
/// Periods recorded per host: 7.4 MB of trace.
const TICKS: u64 = 15_000;
/// Bytes of sink reserved per period (a record is about 490). Reserved up
/// front so that peak RSS is the trace and not how the allocator happened
/// to move a growing buffer.
const SINK_BYTES_PER_TICK: usize = 640;
/// Periods per work segment: 10 ms recording, 25 ms replaying.
const CHUNK: u64 = 2_000;

pub struct TraceRoundtrip {
    seed: u64,
    /// How many times the two co-locations run, each under its own seed.
    sets: usize,
    ticks: u64,
}

/// What must be equal between the recorded run and its replay: QoS and
/// per-tick action counts (`observed`, the leg's digest before batch work
/// is folded in — a replay has no substrate to do any), the controller's
/// statistics minus wall-clock, and β.
fn controller_fingerprint(observed: Digest, stats: &ControllerStats, beta: f64) -> u64 {
    let mut digest = observed;
    fold_stats(&mut digest, stats);
    digest.float(beta);
    digest.finish()
}

/// One direction of the round trip, and what it left behind.
struct Leg {
    out: PassOutcome,
    fingerprint: u64,
}

impl TraceRoundtrip {
    pub fn new(seed: u64, size: Size) -> Self {
        TraceRoundtrip {
            seed,
            sets: size.pick(4, 1, 1) as usize,
            ticks: size.pick(TICKS, TICKS, 300),
        }
    }

    /// Drives `source` (a recorder or a replayer) under a fresh
    /// controller and hands both the leg's outcome and the source back.
    fn leg<S: ObservationSource>(
        &self,
        source: S,
        mut controller: Controller,
        span: &'static str,
        laps: &mut Laps,
        trace: &mut Option<Trace<'_>>,
    ) -> Result<(Leg, S), String> {
        let mut out = PassOutcome::default();
        let spans = trace.as_ref().map(|(tracer, _)| (*tracer, (span, None)));
        let run = Stretch::work(self.ticks, CHUNK);
        let source = closed_loop(source, &mut controller, run, laps, spans, &mut out)?;
        let stats = controller.stats();
        let fingerprint = controller_fingerprint(out.digest, &stats, controller.beta());
        out.finish_host(source.batch_work(), &stats);
        if let Some((_, layers)) = trace.as_mut() {
            layers.absorb_controller(&stats, &controller.metrics());
        }
        Ok((Leg { out, fingerprint }, source))
    }

    /// Records `live` into memory while a fresh controller drives it.
    fn record<S: ObservationSource>(
        &self,
        live: S,
        controller: Controller,
        laps: &mut Laps,
        trace: &mut Option<Trace<'_>>,
    ) -> Result<(Leg, Vec<u8>), String> {
        let recording = laps
            .setup(|| {
                let sink = Vec::with_capacity(self.ticks as usize * SINK_BYTES_PER_TICK);
                RecordingSource::new(live, sink)
            })
            .map_err(|e| e.to_string())?;
        let (leg, recording) = self.leg(recording, controller, "telemetry.encode", laps, trace)?;
        let (_, bytes) = laps
            .work(|| recording.finish())
            .map_err(|e| e.to_string())?;
        Ok((leg, bytes))
    }
}

impl Workload for TraceRoundtrip {
    fn pass(&self, laps: &mut Laps, mut trace: Option<Trace<'_>>) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let registry = MetricsRegistry::new();
        let mut bytes_total = 0usize;
        let hosts = (0..self.sets).flat_map(|_| SCENARIOS);
        for (index, co) in hosts.enumerate() {
            let seed = sub_seed(self.seed, index);
            let (live, controller) = laps.setup(|| co.host(seed, Observability::disabled()))?;
            let tracer: Option<&Tracer> = trace.as_ref().map(|(tracer, _)| *tracer);
            // Traced, the recorder wraps a clocked sim source, so the
            // encode span's self time is the codec alone.
            let (recorded, bytes) = match tracer {
                Some(t) => {
                    let live = TracedSource::new(live, t, "sim.next", Some("sim.apply"));
                    self.record(live, controller, laps, &mut trace)?
                }
                None => self.record(live, controller, laps, &mut trace)?,
            };
            bytes_total += bytes.len();

            let (replay, replayer) = laps.setup(|| {
                let replay = TraceSource::new(bytes.as_slice())
                    .map_err(|e| e.to_string())?
                    .with_metrics(&registry);
                let spec = replay.meta().host.ok_or("the trace header names no host")?;
                let replayer = Controller::for_host(controller_config(seed), &spec)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((replay, replayer))
            })?;
            let (replayed, _) = self.leg(replay, replayer, "telemetry.decode", laps, &mut trace)?;

            if replayed.out.completed != recorded.out.completed {
                out.fail(format!(
                    "{co:?} under seed {seed}: decoded {} ticks of {} encoded",
                    replayed.out.completed, recorded.out.completed
                ));
            }
            if replayed.fingerprint != recorded.fingerprint {
                out.fail(format!(
                    "{co:?} under seed {seed}: the replayed controller diverged from the recorded one"
                ));
            }
            for leg in [recorded.out, replayed.out] {
                out.requested += leg.requested;
                out.completed += leg.completed;
                out.faults += leg.faults;
                out.pool_qos(&leg.qos);
                out.batch_work += leg.batch_work;
                out.digest.word(leg.digest.finish());
                out.failures.extend(leg.failures);
            }
        }
        if let Some((_, layers)) = trace.as_mut() {
            layers.set(
                "telemetry.trace_bytes_per_tick",
                bytes_total as f64 / (out.requested / 2) as f64,
            );
            // The decode-error counter lives in the source's registry,
            // not a controller's.
            layers.absorb_registry(&registry.snapshot());
        }
        Ok(out)
    }
}
