//! The benchmark's contract as data: workload names with the reason each
//! exists, and every metric with its unit, direction and regression bound.
//! `BENCHMARK.json` at the repository root must say the same thing — the
//! schema test compares the two.

/// Seconds a run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Worker threads of the two-worker probes of `fleet-cold` and
/// `cluster-scale`. A constant, never read from the machine, so the work
/// is the same everywhere. The timed passes run at one worker: on a shared
/// sandbox the second vCPU comes and goes — the `Cluster::run` that takes
/// 1.0 s at two workers in a quiet hour took 1.9 to 3.0 s in a busy one,
/// no faster than at one worker — so a two-worker timing measures the
/// neighbours. The speed-up is reported as `fleet.*w1_over_w2`.
pub const WORKERS: usize = 2;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The token used in `BENCHMARK.json` and the results file.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name; per-layer names start with the crate they measure.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The five workloads: name and why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "host-steady",
        "steady-state control loop on the paper's four co-locations, timed once the state maps have formed: predict/trajectory dominates and mds does little",
    ),
    (
        "fleet-cold",
        "hundreds of 384-tick cold-start cells through Fleet::run: the map stage and the mds growth path dominate, predict is small",
    ),
    (
        "cluster-scale",
        "clusters of 16 hosts x 40 jobs through Cluster::run in 2-tick epochs: the workload request engine and the per-epoch barrier dominate, sim does nothing",
    ),
    (
        "trace-roundtrip",
        "tee-record then replay 15k-tick runs in memory: the telemetry JSONL codec dominates, encode beside decode",
    ),
    (
        "host-observed",
        "cheapest control periods with the full introspection plane on: obs is the largest share it ever is",
    ),
];

/// Metrics a user of the system sees. Every workload reports all of them.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ticks_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("qos_satisfaction", "ratio", Higher, 0.15),
    e2e("batch_work", "work", Higher, 0.10),
    e2e("completed_share", "ratio", Higher, 0.001),
];

/// Metrics of single crates, read from the traced pass.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("telemetry.drive_self_s", "s", Lower),
    layer("telemetry.encode_busy_s", "s", Lower),
    layer("telemetry.decode_busy_s", "s", Lower),
    layer("telemetry.decode_us_per_tick", "us", Lower),
    layer("telemetry.trace_bytes_per_tick", "count", Lower),
    layer("telemetry.decode_errors", "count", Lower),
    layer("sim.next_busy_s", "s", Lower),
    layer("sim.apply_busy_s", "s", Lower),
    layer("sim.us_per_tick", "us", Lower),
    layer("workload.next_busy_s", "s", Lower),
    layer("workload.us_per_tick", "us", Lower),
    layer("workload.sim_requests", "count", Higher),
    layer("workload.sim_req_per_s", "1/s", Higher),
    layer("stayaway.decide_busy_s", "s", Lower),
    layer("stayaway.decide_p50_us", "us", Lower),
    layer("stayaway.decide_p99_us", "us", Lower),
    layer("stayaway.decide_max_us", "us", Lower),
    layer("stayaway.sense_s", "s", Lower),
    layer("stayaway.map_s", "s", Lower),
    layer("stayaway.predict_s", "s", Lower),
    layer("stayaway.act_s", "s", Lower),
    layer("stayaway.periods", "count", Higher),
    layer("stayaway.states", "count", Lower),
    layer("stayaway.throttles", "count", Lower),
    layer("stayaway.samples_rejected", "count", Lower),
    layer("stayaway.prediction_hit_ratio", "ratio", Higher),
    layer("mds.sweep_busy_s", "s", Lower),
    layer("mds.sweep_count", "count", Lower),
    layer("mds.sweep_p50_us", "us", Lower),
    layer("mds.sweep_p99_us", "us", Lower),
    layer("mds.append_busy_s", "s", Lower),
    layer("mds.append_count", "count", Lower),
    layer("mds.smacof_runs", "count", Lower),
    layer("mds.smacof_iterations", "count", Lower),
    layer("mds.repr_states", "count", Lower),
    layer("mds.dedup_ratio", "ratio", Higher),
    layer("trajectory.forecast_busy_s", "s", Lower),
    layer("trajectory.forecast_count", "count", Lower),
    layer("trajectory.forecast_p50_us", "us", Lower),
    layer("trajectory.forecast_p99_us", "us", Lower),
    layer("statespace.states", "count", Lower),
    layer("statespace.violation_states", "count", Lower),
    layer("statespace.template_export_us", "us", Lower),
    layer("statespace.template_import_us", "us", Lower),
    layer("fleet.cell_busy_s", "s", Lower),
    layer("fleet.cell_p50_ms", "ms", Lower),
    layer("fleet.cell_p90_ms", "ms", Lower),
    layer("fleet.aggregate_s", "s", Lower),
    layer("fleet.w1_over_w2", "ratio", Higher),
    layer("fleet.cluster_new_s", "s", Lower),
    layer("fleet.cluster_epoch_us", "us", Lower),
    layer("fleet.cluster_w1_over_w2", "ratio", Higher),
    layer("fleet.cluster_admissions", "count", Higher),
    layer("fleet.cluster_migrations", "count", Lower),
    layer("fleet.cluster_deferrals", "count", Lower),
    layer("fleet.cluster_max_queue_depth", "count", Lower),
    layer("fleet.cluster_stale_actions", "count", Lower),
    layer("obs.plane_overhead_share", "ratio", Lower),
    layer("obs.registry_s", "s", Lower),
    layer("obs.spans_s", "s", Lower),
    layer("obs.recorder_s", "s", Lower),
    layer("obs.state_s", "s", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.export_prometheus_us", "us", Lower),
    layer("obs.events_recorded", "count", Higher),
    layer("obs.events_dropped", "count", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("harness.trace_overhead_share", "ratio", Lower),
];

/// Whether `name` is one of the five workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}
