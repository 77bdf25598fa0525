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
use stay_away::obs::FlightRecorder;
use stay_away::sim::scenario::Scenario;
use stay_away::sim::SimSource;
use stay_away::telemetry::{drive, RecordingSource, SourceKind, TraceSource};

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
    let mut recorder =
        RecordingSource::new(SimSource::new(harness), Vec::new()).expect("header writes");
    let (mut live, live_events) = recorded_controller(&scenario);
    let live_out = drive(&mut recorder, &mut live, TICKS).expect("live run");
    let (_, trace) = recorder.finish().expect("trace flushes");

    // Replay the trace through a fresh, identically-configured controller.
    let mut source = TraceSource::new(trace.as_slice()).expect("trace parses");
    assert_eq!(source.header().recorded_from, SourceKind::Sim);
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
    let mut recorder =
        RecordingSource::new(SimSource::new(harness), Vec::new()).expect("header writes");
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
