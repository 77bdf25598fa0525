//! `host-observed`: the cheapest control periods in the library with the
//! full introspection plane switched on, so `obs` is the largest share of
//! a period it ever is. Every other workload runs with observability off
//! and must not move when `obs` changes.

use super::{
    closed_loop, sub_seed, CoLocation, PassOutcome, Probe, Size, Stretch, Trace, Workload,
};
use crate::clock::Laps;
use crate::layers::Layers;
use stay_away::core::Observability;
use stay_away::obs::{to_prometheus, FlightRecorder, MetricsRegistry, SpanSink, StateCell};
use stay_away::telemetry::ObservationSource;
use std::time::Instant;

/// The two co-locations whose maps stay smallest (30 to 45 states), so a
/// period costs 2 to 3 µs once the map has formed: one whose batch job
/// never ends and is throttled for good, one whose batch job finishes.
const SCENARIOS: [CoLocation; 2] = [CoLocation::VlcCpuBomb, CoLocation::VlcSoplex];
/// Control periods per host. CPUBomb's batch work swings by a third
/// between seeds, more on longer runs, so the workload is many hosts of
/// moderate length rather than two long ones.
const TICKS: u64 = 40_000;
/// Periods per work segment: about 10 ms.
const CHUNK: u64 = 4_000;
/// Capacity of the span ring, as the CLI's `--http` path sizes it.
const SPAN_RING: usize = 4096;

/// How much of the introspection plane is on; each level adds to the one
/// before, which is what the marginal-cost ladder walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Plane {
    Disabled,
    Registry,
    Spans,
    Recorder,
    /// Registry + span ring + flight recorder + live `/state` cell: the
    /// workload itself.
    Full,
}

/// The rungs below [`Plane::Full`], in ladder order; the probes.
const RUNGS: [Plane; 4] = [
    Plane::Disabled,
    Plane::Registry,
    Plane::Spans,
    Plane::Recorder,
];

/// The handles of one host's plane, kept to read it back at the end.
struct PlaneHandles {
    registry: Option<MetricsRegistry>,
    sink: Option<SpanSink>,
    recorder: Option<FlightRecorder>,
}

impl Plane {
    fn build(self) -> (Observability, PlaneHandles) {
        let registry = (self >= Plane::Registry).then(MetricsRegistry::new);
        let sink = (self >= Plane::Spans).then(|| SpanSink::bounded(SPAN_RING));
        let recorder = (self >= Plane::Recorder).then(|| FlightRecorder::for_scope(0, "bench"));
        let mut obs = match &registry {
            Some(registry) => Observability::enabled(registry.clone()),
            None => Observability::disabled(),
        };
        if let Some(sink) = &sink {
            obs = obs.with_sink(sink.clone());
        }
        if let Some(recorder) = &recorder {
            obs = obs.with_recorder(recorder.clone());
        }
        if self == Plane::Full {
            obs = obs.with_state(StateCell::new());
        }
        let handles = PlaneHandles {
            registry,
            sink,
            recorder,
        };
        (obs, handles)
    }
}

pub struct HostObserved {
    seed: u64,
    /// How many times the two co-locations run, each under its own seed.
    sets: usize,
    ticks: u64,
    size: Size,
}

impl HostObserved {
    pub fn new(seed: u64, size: Size) -> Self {
        HostObserved {
            seed,
            sets: size.pick(8, 2, 1) as usize,
            ticks: size.pick(TICKS, TICKS, 2_000),
            size,
        }
    }

    fn run(
        &self,
        plane: Plane,
        laps: &mut Laps,
        mut trace: Option<Trace<'_>>,
    ) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let mut events = 0u64;
        let hosts = (0..self.sets).flat_map(|_| SCENARIOS);
        for (index, co) in hosts.enumerate() {
            let seed = sub_seed(self.seed, index);
            let ((source, mut controller), handles) = laps.setup(|| {
                let (obs, handles) = plane.build();
                co.host(seed, obs).map(|host| (host, handles))
            })?;
            let spans = trace
                .as_ref()
                .map(|(tracer, _)| (*tracer, ("sim.next", Some("sim.apply"))));
            let run = Stretch::work(self.ticks, CHUNK);
            let source = closed_loop(source, &mut controller, run, laps, spans, &mut out)?;
            let stats = controller.stats();
            out.finish_host(source.batch_work(), &stats);

            // What an operator does at the end of a run: one snapshot,
            // one exposition, one event export.
            let (snapshot_us, export_us, exported) = laps.work(|| {
                let clock = Instant::now();
                let snapshot = handles.registry.as_ref().map(MetricsRegistry::snapshot);
                let snapshot_us = clock.elapsed().as_secs_f64() * 1e6;
                let clock = Instant::now();
                let exposition = snapshot.as_ref().map(to_prometheus);
                let export_us = clock.elapsed().as_secs_f64() * 1e6;
                let exported = handles.recorder.as_ref().map(FlightRecorder::events);
                std::hint::black_box(&exposition);
                (snapshot_us, export_us, exported)
            });

            let dropped = handles.recorder.as_ref().map_or(0, FlightRecorder::dropped);
            events += exported.map_or(0, |e| e.len() as u64) + dropped;
            if let Some((_, layers)) = trace.as_mut() {
                layers.absorb_controller(&stats, &controller.metrics());
                layers.add("obs.snapshot_us", snapshot_us);
                layers.add("obs.export_prometheus_us", export_us);
                layers.add("obs.events_dropped", dropped as f64);
                layers.add(
                    "obs.spans_dropped",
                    handles.sink.as_ref().map_or(0, SpanSink::dropped) as f64,
                );
            }
        }
        if plane == Plane::Full && self.size.guarded() && events == 0 {
            out.fail("the flight recorder saw no event");
        }
        if let Some((_, layers)) = trace.as_mut() {
            layers.set("obs.events_recorded", events as f64);
        }
        Ok(out)
    }
}

impl Workload for HostObserved {
    fn pass(&self, laps: &mut Laps, trace: Option<Trace<'_>>) -> Result<PassOutcome, String> {
        self.run(Plane::Full, laps, trace)
    }

    fn probes(&self) -> &'static [Probe] {
        &["obs-disabled", "obs-registry", "obs-spans", "obs-recorder"]
    }

    /// A rung of the ladder. Observability is decision-inert, so every
    /// rung must reproduce the full plane's digest.
    fn probe(&self, rung: usize, laps: &mut Laps) -> Result<PassOutcome, String> {
        self.run(RUNGS[rung], laps, None)
    }

    fn relate(&self, full_s: f64, rungs_s: &[f64], layers: &mut Layers) {
        let [disabled, registry, spans, recorder] =
            [rungs_s[0], rungs_s[1], rungs_s[2], rungs_s[3]];
        layers.set("obs.registry_s", registry - disabled);
        layers.set("obs.spans_s", spans - registry);
        layers.set("obs.recorder_s", recorder - spans);
        layers.set("obs.state_s", full_s - recorder);
        layers.set("obs.plane_overhead_share", full_s / disabled - 1.0);
    }
}
