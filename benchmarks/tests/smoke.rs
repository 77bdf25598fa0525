//! Every workload end to end at ~1 % size, one pass: seconds, not
//! minutes. The non-vacuity guards are off at this size (see
//! `Size::Smoke`); everything else — digests, period accounting, replay
//! equality, worker-count equality, metric completeness — is checked.

use stayaway_benchmarks::harness::{run_timed, run_traced, Plan};
use stayaway_benchmarks::spec::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for (name, _) in WORKLOADS {
        let timed = run_timed(name, 7, Plan::smoke()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(timed.correct, "{name}: {:?}", timed.failures);
        assert_eq!(timed.failed, 0, "{name}");
        assert!(timed.attempted > 0, "{name}");
        for m in END_TO_END {
            let value = timed.metrics[m.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {} = {value}",
                m.name
            );
        }

        let traced =
            run_traced(name, 7, Plan::smoke(), None).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(traced.correct, "{name}: {:?}", traced.failures);
        assert_eq!(
            traced.digest, timed.digest,
            "{name}: traced and untraced outcomes differ"
        );
        assert!(traced.spans > 0, "{name}");
        assert!(
            (traced.accounted - 1.0).abs() < 0.02,
            "{name}: the spans account for {} of the traced pass",
            traced.accounted
        );
        for m in PER_LAYER {
            let value = traced.metrics[m.name];
            assert!(value.is_finite(), "{name}: {} = {value}", m.name);
        }
    }
}

#[test]
fn each_workload_exercises_its_own_layer() {
    let busy = |workload: &str, metric: &str| {
        run_traced(workload, 7, Plan::smoke(), None)
            .unwrap()
            .metrics[metric]
    };
    assert!(busy("host-steady", "trajectory.forecast_busy_s") > 0.0);
    assert!(busy("fleet-cold", "mds.sweep_busy_s") > 0.0);
    assert!(busy("cluster-scale", "workload.next_busy_s") > 0.0);
    assert!(busy("trace-roundtrip", "telemetry.decode_busy_s") > 0.0);
    assert!(busy("host-observed", "obs.events_recorded") > 0.0);
    // ... and not its neighbour's.
    assert_eq!(busy("cluster-scale", "sim.next_busy_s"), 0.0);
    assert_eq!(busy("host-steady", "telemetry.decode_busy_s"), 0.0);
}

#[test]
fn a_different_seed_is_a_different_input() {
    let a = run_timed("host-steady", 7, Plan::smoke()).unwrap();
    let b = run_timed("host-steady", 11, Plan::smoke()).unwrap();
    assert_ne!(a.digest, b.digest);
    assert_eq!(
        a.digest,
        run_timed("host-steady", 7, Plan::smoke()).unwrap().digest
    );
}
