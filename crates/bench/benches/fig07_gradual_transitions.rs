//! Figure 7 — snapshot of *gradual* state transitions when VLC streaming is
//! co-located with Twitter-Analysis ("Action status: True" — Stay-Away is
//! throttling during the snapshot).
//!
//! Twitter-Analysis's memory phase ramps its working set up over many
//! ticks, so consecutive mapped states drift in small steps — giving the
//! predictor time to act before the violation-range is entered.

use stayaway_bench::{run, throttle_split, ExperimentSink, Table};
use stayaway_core::{Controller, ControllerConfig, Observability};
use stayaway_obs::FlightRecorder;
use stayaway_sim::scenario::Scenario;
use stayaway_statespace::StateKind;

fn main() {
    println!("=== Figure 7: gradual transitions (VLC streaming + Twitter-Analysis) ===\n");
    let scenario = Scenario::vlc_with_twitter(21);
    // The throttle split below is read from the decision stream, so this
    // controller carries a flight recorder.
    let recorder = FlightRecorder::for_scope(0, "fig07");
    let controller = Controller::for_host_observed(
        ControllerConfig::default(),
        scenario.host_spec(),
        Observability::disabled().with_recorder(recorder.clone()),
    )
    .expect("valid controller config");
    let run = run(&scenario, controller, 300);
    let ctl = &run.policy;

    let mut table = Table::new(&["state", "position", "kind", "visits"]);
    for rep in 0..ctl.repr_count() {
        let e = ctl.state_map().entry(rep).expect("entry exists");
        table.row(&[
            format!("S{rep}"),
            e.point().to_string(),
            match e.kind() {
                StateKind::Violation => "VIOLATION".into(),
                StateKind::Safe => "safe".into(),
            },
            e.visits().to_string(),
        ]);
    }
    println!("{}", table.render());

    // "Action status: True": ticks with batch paused by the controller.
    let throttled_ticks = run
        .outcome
        .timeline
        .iter()
        .filter(|r| r.batch_paused > 0)
        .count();
    println!(
        "throttled ticks: {} / {} (action status TRUE during the snapshot)",
        throttled_ticks,
        run.outcome.timeline.len()
    );

    // Gradualness: fraction of proactive throttles (prediction fired before
    // any violation was reported this episode) — possible precisely because
    // transitions are gradual.
    let (proactive, reactive) = throttle_split(&recorder);
    println!("throttle actions: {proactive} proactive, {reactive} reactive");
    println!(
        "violations: {} (baseline comparison in fig09)",
        run.outcome.qos.violations
    );

    // SVG rendering of the snapshot (the paper's scatter-plot view).
    let svg_path = stayaway_bench::experiments_dir().join("fig07_gradual_transitions.svg");
    std::fs::create_dir_all(svg_path.parent().expect("parent")).expect("dir");
    stayaway_statespace::viz::MapRenderer::new(ctl.state_map(), 640, 480)
        .title("Figure 7: VLC streaming + Twitter-Analysis (Stay-Away active)")
        .save(&svg_path)
        .expect("svg save");
    println!("[artifact] {}", svg_path.display());

    ExperimentSink::new("fig07_gradual_transitions").write(&serde_json::json!({
        "states": (0..ctl.repr_count())
            .map(|rep| {
                let e = ctl.state_map().entry(rep).expect("entry");
                serde_json::json!({
                    "rep": rep, "x": e.point().x, "y": e.point().y,
                    "violation": e.kind() == StateKind::Violation,
                    "visits": e.visits(),
                })
            })
            .collect::<Vec<_>>(),
        "throttled_ticks": throttled_ticks,
        "proactive_throttles": proactive,
        "reactive_throttles": reactive,
    }));
}
