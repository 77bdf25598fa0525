//! Shared by the golden-fixture suites: one controller run, and the
//! projection of its flight-recorder stream into the document shape of
//! `fixtures/golden_controller.json`.
//!
//! The fixture predates the recorder: its `"events"` array was captured
//! from the controller's former private decision log. The controller now
//! emits each decision once, to the recorder, and [`legacy_events`] reads
//! that stream back into the old shape — so the byte-unchanged fixture
//! proves the recorder view carries everything the old log did.

use serde_json::{json, Value};
use stayaway_core::{Controller, ControllerConfig, ControllerStats, Observability};
use stayaway_obs::{AttrValue, EventKind, EventRecord, FlightRecorder};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::RunOutcome;

/// Control periods every golden run drives.
const TICKS: u64 = 300;

/// What one closed-loop controller run leaves behind.
pub struct Run {
    pub stats: ControllerStats,
    pub beta: f64,
    pub outcome: RunOutcome,
}

impl Run {
    /// Actuation count of every tick.
    pub fn timeline_actions(&self) -> Vec<usize> {
        self.outcome.timeline.iter().map(|r| r.actions).collect()
    }
}

/// Drives `scenario` for [`TICKS`] periods under a controller built from
/// `config` and `obs`.
#[allow(dead_code)] // called by golden_fixture.rs only
pub fn run(config: ControllerConfig, scenario: &Scenario, obs: Observability) -> Run {
    run_for(config, scenario, obs, TICKS)
}

/// [`run`] over an explicit number of control periods.
pub fn run_for(
    config: ControllerConfig,
    scenario: &Scenario,
    obs: Observability,
    ticks: u64,
) -> Run {
    let mut harness = scenario.build_harness().expect("scenario builds");
    let mut ctl =
        Controller::for_host_observed(config, harness.host().spec(), obs).expect("config is valid");
    let outcome = harness.run(&mut ctl, ticks);
    Run {
        stats: ctl.stats(),
        beta: ctl.beta(),
        outcome,
    }
}

/// Runs with a flight recorder added to `obs` and projects the observable
/// controller behaviour into the canonical golden document.
///
/// Only behaviourally meaningful, deterministic fields enter the
/// projection: wall-clock stage timings are explicitly excluded, stat
/// fields are listed one by one so adding a *new* counter cannot silently
/// change the fixture.
pub fn capture(config: ControllerConfig, scenario: &Scenario, obs: Observability) -> Value {
    capture_for(config, scenario, obs, TICKS)
}

/// [`capture`] over an explicit number of control periods.
pub fn capture_for(
    config: ControllerConfig,
    scenario: &Scenario,
    obs: Observability,
    ticks: u64,
) -> Value {
    let recorder = FlightRecorder::for_scope(0, "golden");
    let run = run_for(config, scenario, obs.with_recorder(recorder.clone()), ticks);
    let stats = &run.stats;
    json!({
        "scenario": scenario.name(),
        "ticks": ticks,
        "events": legacy_events(&recorder.events()),
        "stats": json!({
            "periods": stats.periods,
            "violations_observed": stats.violations_observed,
            "violations_predicted": stats.violations_predicted,
            "throttles": stats.throttles,
            "resumes": stats.resumes,
            "prediction_checks": stats.prediction_checks,
            "prediction_hits": stats.prediction_hits,
            "states": stats.states,
            "violation_states": stats.violation_states,
            "mapping_errors": stats.mapping_errors,
            "events_dropped": stats.events_dropped,
        }),
        "beta": run.beta,
        "qos_violations": run.outcome.qos.violations,
        "timeline_actions": run.timeline_actions(),
    })
}

/// The recorder stream in the shape of the pre-recorder decision log, in
/// insertion (`seq`) order. Drift anchors and negative verdicts are
/// skipped: the old log never stored them.
fn legacy_events(records: &[EventRecord]) -> Vec<Value> {
    records.iter().filter_map(legacy_event).collect()
}

fn legacy_event(record: &EventRecord) -> Option<Value> {
    let tick = record.tick;
    let attr = |name: &str| -> Value {
        let value = record
            .attr(name)
            .unwrap_or_else(|| panic!("{} record carries `{name}`", record.kind));
        match value {
            AttrValue::U64(v) => json!(v),
            AttrValue::I64(v) => json!(v),
            AttrValue::F64(v) => json!(v),
            AttrValue::Bool(v) => json!(v),
            AttrValue::Str(v) => json!(v),
        }
    };
    let (variant, fields) = match record.kind {
        EventKind::SloViolation => (
            "ViolationLearned",
            json!({ "tick": tick, "state": attr("state") }),
        ),
        EventKind::BetaChange => (
            "BetaIncreased",
            json!({ "tick": tick, "beta": attr("beta") }),
        ),
        EventKind::Resume => {
            let reason = match attr("reason").as_str() {
                Some("phase-change") => "PhaseChange",
                Some("optimistic") => "Optimistic",
                other => panic!("unknown resume reason {other:?}"),
            };
            ("Resumed", json!({ "tick": tick, "reason": reason }))
        }
        EventKind::PredictorVerdict if attr("predicted") == json!(true) => (
            "ViolationPredicted",
            json!({ "tick": tick, "votes": attr("votes"), "samples": attr("samples") }),
        ),
        EventKind::Throttle => (
            "Throttled",
            json!({ "tick": tick, "count": attr("count"), "proactive": attr("proactive") }),
        ),
        EventKind::PredictorVerdict | EventKind::DriftAnchor => return None,
        other => panic!("the controller never emits {other}"),
    };
    Some(Value::Object(vec![(variant.to_string(), fields)]))
}
