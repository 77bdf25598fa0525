//! Cross-plane equivalence: a cluster host and a fleet cell are the same
//! closed loop.
//!
//! The contract under test: a one-host cluster whose only job never
//! arrives does nothing but advance that host's local control loop, so it
//! must agree with the fleet cell over the same workload scenario under
//! the same derived seed — decision for decision, bit for bit, event for
//! event. Both planes sit on `stayaway_telemetry::step`; this suite is the
//! proof that folding the cluster's host advance onto it changed nothing,
//! and it keeps the two planes from drifting apart again. Both also open
//! their host through one path (the source, the policy against its host
//! spec, one instrument bundle) and fold it through one tally, so the
//! host's instruments and its rollup's derived fields agree with the
//! cell's too.

use stayaway_core::ControllerConfig;
use stayaway_fleet::cell::run_cell;
use stayaway_fleet::{
    cluster_by_name, derive_cell_seed, CellPlan, Cluster, ClusterConfig, ClusterScenario,
    PolicySpec, SourceSpec,
};
use stayaway_obs::EventKind;
use stayaway_sim::scenario::Scenario;

const SEED: u64 = 7;
const EPOCHS: u64 = 30;
const TICKS_PER_EPOCH: u64 = 8;
const TICKS: u64 = EPOCHS * TICKS_PER_EPOCH;

/// One `cpu-bomb` host plus a job submitted long after the horizon: the
/// cluster plane never issues a verb, so only the host loop runs.
fn lone_host_cluster() -> ClusterScenario {
    let mut job = cluster_by_name("hotspot").unwrap().jobs[0].clone();
    job.submit_tick = 10 * TICKS;
    ClusterScenario {
        name: "lone-host".into(),
        description: "one cpu-bomb host, no job ever arrives".into(),
        hosts: vec![stayaway_workload::by_name("cpu-bomb").unwrap()],
        jobs: vec![job],
    }
}

#[test]
fn a_lone_cluster_host_matches_the_fleet_cell_over_the_same_workload() {
    let mut config = ClusterConfig::new(lone_host_cluster(), SEED);
    config.epochs = EPOCHS;
    config.ticks_per_epoch = TICKS_PER_EPOCH;
    config.collect_events = true;
    config.collect_metrics = true;
    let cluster = Cluster::new(config).unwrap().run().unwrap();
    assert_eq!(
        cluster.admissions + cluster.deferrals + cluster.queue_actions,
        0
    );
    assert!(
        !cluster.per_job[0].arrived,
        "the job must stay over the horizon"
    );
    let host = &cluster.per_host[0];

    let plan = CellPlan::new(
        0,
        SEED,
        Scenario::vlc_with_cpubomb(SEED),
        PolicySpec::StayAway,
    )
    .with_source(SourceSpec::Workload {
        scenario: "cpu-bomb".into(),
    })
    .with_event_collection(true)
    .with_metrics_collection(true);
    let cell = run_cell(&plan, &ControllerConfig::default(), None, TICKS).unwrap();

    assert_eq!(host.seed, derive_cell_seed(SEED, 0));
    assert_eq!(host.seed, cell.seed);
    assert_eq!(host.qos, cell.run.qos);
    assert!(host.qos.active_ticks > 0 && host.qos.violations > 0);
    assert_eq!(host.throttles, cell.stats.throttles);
    assert_eq!(host.resumes, cell.stats.resumes);
    assert!(host.throttles > 0, "cpu-bomb must force throttles");
    assert_eq!(host.batch_work.to_bits(), cell.run.batch_work.to_bits());
    assert_eq!(host.rejected_actions, cell.run.rejected_actions);
    assert_eq!(
        host.mean_utilization.to_bits(),
        cell.run.mean_utilization().to_bits()
    );

    // The host-scope event stream: same decisions at the same ticks (the
    // subjects differ — `host:0` vs `cell:0` — so compare tick and kind).
    let stream = |events: &[stayaway_obs::EventRecord]| -> Vec<(u64, EventKind)> {
        events
            .iter()
            .filter(|e| e.scope == 0)
            .map(|e| (e.tick, e.kind))
            .collect()
    };
    let host_events = stream(cluster.events.as_ref().expect("events requested"));
    let cell_events = stream(cell.events.as_ref().expect("events requested"));
    assert!(host_events
        .iter()
        .any(|(_, kind)| *kind == EventKind::SloViolation));
    assert_eq!(host_events, cell_events);

    // One open path: the same instruments registered into one bundle, so
    // the host's rollup is the cell's registry but for the span only a
    // fleet cell times.
    let mut cell_metrics = cell
        .metrics
        .as_ref()
        .expect("metrics requested")
        .stable_view();
    let runtime = "stayaway_fleet_cell_runtime_nanos";
    assert!(cell_metrics.histograms.iter().any(|h| h.name == runtime));
    cell_metrics.histograms.retain(|h| h.name != runtime);
    assert_eq!(
        cluster.metrics.as_ref().expect("metrics requested"),
        &cell_metrics
    );
    assert!(!cell_metrics.counters.is_empty() && !cell_metrics.gauges.is_empty());

    // One tally: the derived and counted fields of both rollups.
    assert_eq!(
        host.gained_utilization.to_bits(),
        cell.run
            .mean_gained_utilization(cell.cpu_capacity)
            .to_bits()
    );
    assert_eq!(host.events_dropped, cell.stats.events_dropped);
    assert_eq!(host.prediction_checks, cell.stats.prediction_checks);
    assert_eq!(host.prediction_hits, cell.stats.prediction_hits);
    assert_eq!(host.samples_rejected, cell.stats.samples_rejected);
}
