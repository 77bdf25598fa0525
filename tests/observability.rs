//! Facade-level tests for the observability plane: the exposition
//! formats are valid, the instruments cover every layer, and turning
//! them all on never changes what the controller or the fleet does.

use stay_away::core::{Controller, ControllerConfig, Observability};
use stay_away::fleet::{Fleet, FleetConfig};
use stay_away::obs::{
    promlint, to_json, to_prometheus, MetricsRegistry, MetricsSnapshot, SpanSink,
};
use stay_away::sim::scenario::Scenario;
use stay_away::sim::RunOutcome;

const TICKS: u64 = 64;

/// Runs the default scenario for 64 ticks with every instrument on and
/// returns the outcome plus the registry snapshot.
fn instrumented_run() -> (RunOutcome, MetricsSnapshot, SpanSink) {
    let scenario = Scenario::vlc_with_cpubomb(7);
    let mut harness = scenario.build_harness().expect("harness builds");
    let registry = MetricsRegistry::new();
    let sink = SpanSink::bounded(1024);
    let obs = Observability::enabled(registry.clone()).with_sink(sink.clone());
    let mut ctl =
        Controller::for_host_observed(ControllerConfig::default(), harness.host().spec(), obs)
            .expect("controller builds");
    let outcome = harness.run(&mut ctl, TICKS);
    (outcome, registry.snapshot(), sink)
}

/// The Prometheus text exposition of a fully instrumented run passes
/// the in-tree promlint: well-formed headers, monotone cumulative
/// buckets, `+Inf` terminators, consistent `_count` series.
#[test]
fn prometheus_exposition_lints_clean() {
    let (_, snapshot, _) = instrumented_run();
    let text = to_prometheus(&snapshot);
    if let Err(errors) = promlint::validate(&text) {
        panic!("promlint violations:\n{}", errors.join("\n"));
    }
}

/// The instruments the issue demands are all present after one run:
/// controller stage latencies and decision counters, map-stage
/// gauges, and the β / duty-cycle gauges.
#[test]
fn exposition_covers_controller_and_mapping_instruments() {
    let (_, snapshot, sink) = instrumented_run();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    };
    assert_eq!(counter("stayaway_controller_periods_total").value, TICKS);
    counter("stayaway_controller_samples_rejected_total");
    counter("stayaway_controller_mapping_errors_total");
    assert!(gauge("stayaway_controller_beta").value > 0.0);
    let duty = gauge("stayaway_controller_throttle_duty_cycle").value;
    assert!((0.0..=1.0).contains(&duty));
    gauge("stayaway_controller_events_dropped");
    assert!(gauge("stayaway_mapping_repr_states").value > 0.0);
    gauge("stayaway_mapping_dedup_ratio");
    for stage in ["sense", "map", "predict", "act"] {
        let name = format!("stayaway_controller_{stage}_latency_nanos");
        let hist = snapshot
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(hist.hist.count, TICKS);
        // Quantile estimates exist and are ordered once samples landed.
        let p50 = hist.hist.quantile(0.50).expect("p50 estimable");
        let p99 = hist.hist.quantile(0.99).expect("p99 estimable");
        assert!(p50 <= p99, "p50 {p50} > p99 {p99} for {name}");
    }
    // Span records mirror the stage timings into the bounded sink.
    let records = sink.records();
    assert!(records.iter().any(|r| r.name == "controller.map"));
    // JSON export round-trips through the serde layer.
    let doc = to_json(&snapshot);
    assert!(doc.get("counters").is_some());
    assert!(doc.get("histograms").is_some());
}

/// A fleet rollup exports valid Prometheus text too, and stays
/// byte-identical however many workers produced it.
#[test]
fn fleet_rollup_exposition_is_valid_and_worker_independent() {
    let run = |workers| {
        let mut config = FleetConfig::new(8, workers, 7);
        config.ticks = TICKS;
        config.collect_metrics = true;
        Fleet::new(config).unwrap().run().unwrap()
    };
    let a = run(1);
    let b = run(4);
    let rollup = a.metrics.as_ref().expect("rollup collected");
    let text = to_prometheus(rollup);
    if let Err(errors) = promlint::validate(&text) {
        panic!(
            "promlint violations in fleet rollup:\n{}",
            errors.join("\n")
        );
    }
    assert_eq!(text, to_prometheus(b.metrics.as_ref().unwrap()));
    let json = serde_json::to_string_pretty(&to_json(rollup)).unwrap();
    let json_b = serde_json::to_string_pretty(&to_json(b.metrics.as_ref().unwrap())).unwrap();
    assert_eq!(json, json_b, "fleet JSON rollup must be worker-independent");
    // The per-cell runtime span histogram counted every cell once.
    let cell_runtime = rollup
        .histograms
        .iter()
        .find(|h| h.name == "stayaway_fleet_cell_runtime_nanos")
        .expect("cell runtime histogram in rollup");
    assert_eq!(cell_runtime.hist.count, 8);
}

/// Full instrumentation is decision-inert at the facade level: QoS,
/// timeline and batch work match an uninstrumented run exactly.
#[test]
fn instrumentation_is_decision_inert_end_to_end() {
    let scenario = Scenario::vlc_with_cpubomb(7);
    let mut harness = scenario.build_harness().expect("harness builds");
    let mut bare_ctl = Controller::for_host(ControllerConfig::default(), harness.host().spec())
        .expect("controller builds");
    let bare = harness.run(&mut bare_ctl, TICKS);
    let (observed, snapshot, _) = instrumented_run();
    assert_eq!(bare, observed);
    assert!(!snapshot.is_empty());
}
