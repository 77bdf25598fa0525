//! Record→replay determinism (the telemetry plane's acceptance contract).
//!
//! A live simulated run recorded through a trace tee, replayed through an
//! identically-configured controller, must reproduce the controller's
//! observable behaviour bit-for-bit: per-tick action counts, the
//! flight-recorder event stream, the stats counters, the learned β and
//! the full state map. This
//! holds because the controller is a pure function of its observation
//! sequence plus its own seeded RNG — the trace captures the former and
//! the config pins the latter.

use stay_away::core::{Controller, ControllerConfig, Observability};
use stay_away::obs::{FlightRecorder, MetricsRegistry};
use stay_away::sim::scenario::Scenario;
use stay_away::telemetry::{
    derive_record, drive, Action, AppClass, FaultySource, Observation, ObservationSource, Policy,
    RecordingSource, SourceKind, SourceMeta, TelemetryError, TickRecord, TraceHeader, TraceSource,
    TraceWriter,
};
use stay_away::workload::{by_name, TenantSpec, WorkloadHost};

const TICKS: u64 = 300;

fn controller(scenario: &Scenario) -> Controller {
    Controller::for_host(ControllerConfig::default(), scenario.host_spec())
        .expect("default config is valid")
}

/// A default controller emitting its decisions into a fresh recorder.
fn recorded_controller(scenario: &Scenario) -> (Controller, FlightRecorder) {
    let events = FlightRecorder::for_scope(0, "run");
    let obs = Observability::disabled().with_recorder(events.clone());
    let ctl = Controller::for_host_observed(ControllerConfig::default(), scenario.host_spec(), obs)
        .expect("default config is valid");
    (ctl, events)
}

#[test]
fn record_then_replay_is_bit_identical() {
    let scenario = Scenario::vlc_with_cpubomb(7);

    // Live run with a recording tee around the simulator source.
    let harness = scenario.build_harness().expect("scenario builds");
    let mut recorder = RecordingSource::new(harness, Vec::new()).expect("header writes");
    let (mut live, live_events) = recorded_controller(&scenario);
    let live_out = drive(&mut recorder, &mut live, TICKS).expect("live run");
    let (_, trace) = recorder.finish().expect("trace flushes");

    // Replay the trace through a fresh, identically-configured controller.
    let first = std::str::from_utf8(&trace).expect("utf-8").lines().next();
    let header: TraceHeader = serde_json::from_str(first.expect("header line")).expect("header");
    assert_eq!(header.recorded_from, SourceKind::Sim);
    let mut source = TraceSource::new(trace.as_slice()).expect("trace parses");
    let (mut replayed, replayed_events) = recorded_controller(&scenario);
    let replay_out = drive(&mut source, &mut replayed, TICKS).expect("replayed run");

    // Actions: the same actuation count on every tick.
    assert_eq!(live_out.timeline.len(), replay_out.timeline.len());
    let actions = |out: &stay_away::telemetry::RunOutcome| -> Vec<(u64, usize)> {
        out.timeline.iter().map(|r| (r.tick, r.actions)).collect()
    };
    assert_eq!(actions(&live_out), actions(&replay_out));

    // QoS accounting is carried verbatim by the trace.
    assert_eq!(live_out.qos, replay_out.qos);

    // Controller internals: events, stats, β and the learned state map.
    assert!(!live_events.is_empty());
    assert_eq!(live_events.events(), replayed_events.events());
    assert_eq!(live.stats(), replayed.stats());
    assert_eq!(live.beta().to_bits(), replayed.beta().to_bits());
    // StateMap intentionally has no PartialEq; its serialised form is a
    // total projection of every entry, so byte equality here is exact.
    let map_json = |c: &Controller| serde_json::to_string(c.state_map()).expect("serialises");
    assert_eq!(map_json(&live), map_json(&replayed));
}

#[test]
fn replay_stops_at_trace_end_and_stays_deterministic_across_readers() {
    let scenario = Scenario::vlc_with_cpubomb(21);
    let harness = scenario.build_harness().expect("scenario builds");
    let mut recorder = RecordingSource::new(harness, Vec::new()).expect("header writes");
    drive(&mut recorder, &mut controller(&scenario), 64).expect("recorded run");
    let (_, trace) = recorder.finish().expect("trace flushes");

    // Asking for more ticks than the trace holds ends the run gracefully.
    let mut source = TraceSource::new(trace.as_slice()).expect("trace parses");
    let mut ctl = controller(&scenario);
    let out = drive(&mut source, &mut ctl, 10_000).expect("replay");
    assert_eq!(out.timeline.len(), 64);

    // Two independent replays of the same bytes agree bit-for-bit.
    let mut again = TraceSource::new(trace.as_slice()).expect("trace parses");
    let mut ctl2 = controller(&scenario);
    let out2 = drive(&mut again, &mut ctl2, 10_000).expect("replay");
    assert_eq!(out.timeline, out2.timeline);
    assert_eq!(ctl.stats(), ctl2.stats());
}

/// The bytes a recording takes, pinned: the header, one tick line and a
/// 60-tick `vlc+cpu-bomb` run under the default controller, and what a
/// replay counts in `stayaway_telemetry_trace_bytes_total`. A format
/// change that moves them re-pins them once.
#[test]
fn the_bytes_of_a_recording_are_pinned() {
    let scenario = Scenario::vlc_with_cpubomb(7);
    let harness = scenario.build_harness().expect("scenario builds");
    let mut recorder = RecordingSource::new(harness, Vec::new()).expect("trace starts");
    drive(&mut recorder, &mut controller(&scenario), 60).expect("recorded run");
    let (_, trace) = recorder.finish().expect("trace flushes");
    let text = std::str::from_utf8(&trace).expect("utf-8");
    let lines: Vec<usize> = text.split_inclusive('\n').map(str::len).collect();
    assert_eq!(lines.len(), 61);
    assert_eq!((lines[0], lines[1]), (HEADER_BYTES, FIRST_TICK_BYTES));
    assert_eq!(trace.len(), TRACE_BYTES);

    let registry = MetricsRegistry::new();
    let mut source = TraceSource::new(trace.as_slice())
        .expect("trace parses")
        .with_metrics(&registry);
    assert_eq!(
        drive(&mut source, &mut controller(&scenario), 60)
            .expect("replay")
            .ticks,
        60
    );
    let counted = registry.counter(
        "stayaway_telemetry_trace_bytes_total",
        "Bytes of the trace lines read after the header",
    );
    assert_eq!(counted.get(), (TRACE_BYTES - HEADER_BYTES) as u64);
}

const HEADER_BYTES: usize = 397;
const FIRST_TICK_BYTES: usize = 184;
const TRACE_BYTES: usize = 12_083;

/// A workload host whose roster changes: a tenant attached, detached, a
/// resident batch tenant detached and the tenant attached again.
struct Scripted {
    host: WorkloadHost,
    tick: u64,
    movable: TenantSpec,
    attached: Option<usize>,
}

impl Scripted {
    fn new() -> Self {
        let movable = by_name("cpu-bomb")
            .expect("cpu-bomb is in the library")
            .tenants
            .into_iter()
            .find(|t| t.class == AppClass::Batch)
            .expect("cpu-bomb has a batch tenant");
        let host = WorkloadHost::new(by_name("multi-tenant-storm").expect("storm"), 11)
            .expect("the storm builds");
        Scripted {
            host,
            tick: 0,
            movable,
            attached: None,
        }
    }
}

impl ObservationSource for Scripted {
    fn meta(&self) -> SourceMeta {
        ObservationSource::meta(&self.host)
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let resident_batch = 2;
        match self.tick {
            10 => self.attached = Some(self.host.attach_tenant(self.movable.clone()).unwrap()),
            30 => drop(self.host.detach_tenant(self.attached.unwrap()).unwrap()),
            50 => drop(self.host.detach_tenant(resident_batch).unwrap()),
            60 => drop(self.host.attach_tenant(self.movable.clone()).unwrap()),
            _ => {}
        }
        self.tick += 1;
        ObservationSource::next_observation(&mut self.host)
    }

    fn recycle(&mut self, observation: Observation) {
        ObservationSource::recycle(&mut self.host, observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        ObservationSource::apply(&mut self.host, actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        ObservationSource::record_for(&self.host, observation, actions)
    }
}

/// A policy that keeps every observation it decides on and how many
/// actions it issued.
struct Watched {
    inner: Controller,
    seen: Vec<Observation>,
    issued: Vec<usize>,
}

impl Policy for Watched {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        self.seen.push(observation.clone());
        let actions = self.inner.decide(observation);
        self.issued.push(actions.len());
        actions
    }
}

/// A run whose roster changes (tenants attached and detached, bare and
/// under sensor dropout and actuation failure) records the changes as
/// roster lines and replays bit for bit: the controller sees the same
/// observations, every record is the one the recorded observation
/// derives, and the decisions, event stream, statistics and β are the
/// recorded run's.
#[test]
fn a_run_whose_roster_changes_replays_bit_for_bit() {
    const TICKS: u64 = 90;
    let bits = |o: &[Observation]| format!("{o:?}");
    for faults in [None, Some((0.1, 0.3))] {
        let spec = Scripted::new().host.scenario().host;
        let watched = || {
            let events = FlightRecorder::for_scope(0, "run");
            let obs = Observability::disabled().with_recorder(events.clone());
            let inner = Controller::for_host_observed(ControllerConfig::default(), &spec, obs)
                .expect("default config is valid");
            let (seen, issued) = (Vec::new(), Vec::new());
            (
                Watched {
                    inner,
                    seen,
                    issued,
                },
                events,
            )
        };
        let source: Box<dyn ObservationSource> = match faults {
            None => Box::new(Scripted::new()),
            Some((dropout, failure)) => {
                Box::new(FaultySource::new(Scripted::new(), dropout, failure, 5).unwrap())
            }
        };
        let mut recorder = RecordingSource::new(source, Vec::new()).expect("trace starts");
        let (mut live, live_events) = watched();
        let live_out = drive(&mut recorder, &mut live, TICKS).expect("live run");
        let (_, trace) = recorder.finish().expect("trace flushes");
        let text = std::str::from_utf8(&trace).expect("utf-8");
        let restated = text.lines().skip(1).filter(|l| l.starts_with('{')).count();
        // The two attaches; a detached tenant stays on as a tombstone.
        assert_eq!(restated, 2, "{faults:?}");

        let mut source = TraceSource::new(trace.as_slice()).expect("trace parses");
        let (mut replayed, replayed_events) = watched();
        let replay_out = drive(&mut source, &mut replayed, TICKS).expect("replay");
        assert_eq!(replay_out.ticks, TICKS);
        assert_eq!(bits(&replayed.seen), bits(&live.seen), "{faults:?}");
        // A swallowed batch counts no actions in the live record; a
        // replay, which applies nothing, counts what the controller issued.
        let derived: Vec<TickRecord> = (live.seen.iter().zip(&live.issued))
            .map(|(o, &issued)| derive_record(o, issued, Some(&spec)))
            .collect();
        assert_eq!(live_out.ticks, TICKS);
        assert_eq!(format!("{:?}", replay_out.timeline), format!("{derived:?}"));
        assert_eq!(live_events.events(), replayed_events.events());
        assert_eq!(live.inner.stats(), replayed.inner.stats());
        assert_eq!(live.inner.beta().to_bits(), replayed.inner.beta().to_bits());
    }
}

/// The committed version 1 fixture, re-recorded as version 2, decodes to
/// the observation stream it holds, in fewer bytes.
#[test]
fn the_v1_fixture_re_recorded_as_v2_decodes_to_the_same_stream() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/smoke_trace.jsonl"
    );
    let drain = |mut source: Box<dyn ObservationSource>| {
        let mut stream = Vec::new();
        while let Some(observation) = source.next_observation().expect("decodes") {
            stream.push(observation);
        }
        stream
    };
    let v1 = drain(Box::new(TraceSource::open(path).expect("fixture opens")));
    assert_eq!(v1.len(), 48);
    let meta = TraceSource::open(path).expect("fixture opens").meta();
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("trace starts");
    for observation in &v1 {
        writer.record(observation).expect("records");
    }
    let v2 = writer.finish().expect("trace flushes");
    let header: TraceHeader = serde_json::from_str(
        std::str::from_utf8(&v2)
            .expect("utf-8")
            .lines()
            .next()
            .expect("a header"),
    )
    .expect("header decodes");
    assert_eq!(header.version, 2);
    let decoded = drain(Box::new(
        TraceSource::new(v2.as_slice()).expect("trace parses"),
    ));
    assert_eq!(format!("{decoded:?}"), format!("{v1:?}"));
    let v1_bytes = std::fs::metadata(path).expect("fixture").len() as usize;
    assert!(v2.len() * 2 < v1_bytes, "{} of {v1_bytes}", v2.len());
}
