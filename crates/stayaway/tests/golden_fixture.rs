//! Golden-fixture equivalence for the staged controller pipeline.
//!
//! The fixture under `tests/fixtures/` was captured from the pre-refactor
//! monolithic controller (one `period()` function, decisions kept in a
//! private log; `tests/common/mod.rs` reads the same shape back from the
//! flight-recorder stream). The staged pipeline
//! (Sense → Map → Predict → Act) must reproduce the recorded event and
//! stat streams **bit-for-bit** on the same scenario: identical events in
//! identical order, identical counters, identical per-tick action counts,
//! identical final β. Any divergence means the refactor changed behaviour.
//!
//! The fixture has been re-pinned once, on purpose: when new states began
//! to be placed into the map instead of re-solving it and the map stopped
//! being a line, coordinates moved. Against the pre-refactor capture no
//! tick's action set changed — 17 violations, 17 throttles, 16 resumes,
//! final β 0.17 on both sides — and two redundant `ViolationPredicted`
//! events (ticks 74 and 169, each beside a reactive throttle that fired
//! anyway) went away; CHANGES.md (PR 19) has the diff.
//!
//! Regenerate (only when a behaviour change is intended and reviewed):
//!
//! ```text
//! STAYAWAY_REGEN_GOLDEN=1 cargo test -p stayaway-core --test golden_fixture
//! ```

mod common;

use serde_json::Value;
use stayaway_core::{ControllerConfig, Observability};
use stayaway_obs::{FlightRecorder, MetricsRegistry, SpanSink};
use stayaway_sim::scenario::Scenario;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_controller.json"
);

/// Runs the default scenario under the default configuration and projects
/// the observable controller behaviour into the canonical JSON document
/// (see [`common::capture`]); `"events"` is read from the flight-recorder
/// stream, the controller's only event path.
fn capture() -> Value {
    capture_observed(Observability::disabled())
}

fn capture_observed(obs: Observability) -> Value {
    common::capture(
        ControllerConfig::default(),
        &Scenario::vlc_with_cpubomb(7),
        obs,
    )
}

#[test]
fn staged_pipeline_matches_prerefactor_golden_fixture() {
    let rendered = serde_json::to_string_pretty(&capture()).expect("projection serialises") + "\n";
    if std::env::var("STAYAWAY_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE_PATH).parent().unwrap())
            .expect("fixture dir");
        std::fs::write(FIXTURE_PATH, &rendered).expect("fixture written");
        eprintln!("golden fixture regenerated at {FIXTURE_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH)
        .expect("golden fixture exists (regenerate with STAYAWAY_REGEN_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "staged pipeline diverged from the pre-refactor event/stat stream"
    );
}

/// The observability plane's hard invariant (DESIGN.md §11): a run with
/// every instrument enabled — metrics registry, span sink, and the deep
/// (O(n²) stress gauge) mode — projects to **bit-for-bit** the same
/// golden document as the uninstrumented run. Instrumentation reads the
/// clock and writes atomics; it must never touch controller RNG or
/// branch control logic.
#[test]
fn fully_instrumented_run_matches_the_golden_fixture_bit_for_bit() {
    if std::env::var("STAYAWAY_REGEN_GOLDEN").is_ok() {
        return; // regeneration runs capture() once; nothing to compare
    }
    let golden = std::fs::read_to_string(FIXTURE_PATH)
        .expect("golden fixture exists (regenerate with STAYAWAY_REGEN_GOLDEN=1)");
    let registry = MetricsRegistry::new();
    let sink = SpanSink::bounded(4096);
    let obs = Observability::enabled(registry.clone()).with_sink(sink.clone());
    assert!(obs.exported_registry().is_some());
    let rendered =
        serde_json::to_string_pretty(&capture_observed(obs)).expect("projection serialises") + "\n";
    assert_eq!(
        rendered, golden,
        "instrumentation changed controller behaviour — the obs plane must be decision-inert"
    );
    // The instruments did record: per-stage latency histograms saw every
    // period the stage clock samples, and the sink holds their span
    // records. The sampling rule, copied here as an oracle: period `p`
    // (from 0) is clocked when it is the offset `splitmix64(block) % 16`
    // of its block of 16.
    let sampled = (0..300u64)
        .filter(|&p| p % 16 == stayaway_telemetry::splitmix64(p / 16) % 16)
        .count() as u64;
    let snapshot = registry.snapshot();
    for stage in ["sense", "map", "predict", "act"] {
        let name = format!("stayaway_controller_{stage}_latency_nanos");
        let hist = snapshot
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("{name} registered"));
        assert_eq!(
            hist.hist.count, sampled,
            "{name} records one sample per clocked period"
        );
    }
    // The prediction-plane instruments (DESIGN.md §15) are equally
    // decision-inert: the run above matched the fixture bit-for-bit, yet
    // the forecast latency histogram and verdict counters did record. A
    // forecast is timed only on a clocked period, at most once there.
    let forecast = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "stayaway_predict_forecast_latency_nanos")
        .expect("forecast latency histogram registered");
    assert!(
        forecast.hist.count > 0 && forecast.hist.count <= sampled,
        "forecast latency records one sample per forecast of a clocked period"
    );
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} registered"))
            .value
    };
    let verdicts = counter("stayaway_predict_verdicts_total");
    let violation_verdicts = counter("stayaway_predict_violation_verdicts_total");
    assert!(verdicts > 0, "the KDE issued verdicts on this scenario");
    assert!(
        violation_verdicts <= verdicts,
        "violation verdicts are a subset of all verdicts"
    );
    // Nor does the map stage's gate read its instruments: the run matched
    // the fixture while new states went down both of its arms — placed
    // into the map as it stood, and re-solving it.
    let placed = counter("stayaway_mapping_placements_total");
    let solved = counter("stayaway_mapping_smacof_runs_total");
    assert!(
        placed > 0 && solved > 0,
        "placements {placed}, global solves {solved}"
    );
    assert!(!sink.is_empty(), "span sink captured records");
}

/// Recording is the only event path, and it stays decision-inert: a run
/// with a flight recorder and a run without one agree on every counter,
/// β and the per-tick actuation counts.
#[test]
fn recording_is_decision_inert() {
    let scenario = Scenario::vlc_with_cpubomb(7);
    let bare = common::run(
        ControllerConfig::default(),
        &scenario,
        Observability::disabled(),
    );
    let recorder = FlightRecorder::for_scope(0, "golden");
    let recorded = common::run(
        ControllerConfig::default(),
        &scenario,
        Observability::disabled().with_recorder(recorder.clone()),
    );
    assert!(!recorder.is_empty(), "the recorder saw the run");
    assert_eq!(bare.stats, recorded.stats);
    assert_eq!(bare.beta.to_bits(), recorded.beta.to_bits());
    assert_eq!(bare.timeline_actions(), recorded.timeline_actions());
    assert_eq!(bare.stats.events_dropped, 0, "no recorder, nothing dropped");
}

/// `events_dropped` is the recorder's own eviction count: the ring bound
/// lives in the recorder's capacity and nowhere else.
#[test]
fn events_dropped_reports_the_recorder_under_a_tiny_capacity() {
    let recorder = FlightRecorder::bounded(0, "golden", 4);
    let run = common::run(
        ControllerConfig::default(),
        &Scenario::vlc_with_cpubomb(7),
        Observability::disabled().with_recorder(recorder.clone()),
    );
    assert_eq!(recorder.len(), 4);
    assert!(recorder.dropped() > 0, "300 ticks overflow a 4-slot ring");
    assert_eq!(run.stats.events_dropped, recorder.dropped());
}
