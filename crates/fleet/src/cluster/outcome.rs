//! Cluster-level rollups: per-host, per-job and cluster-wide.
//!
//! Like the fleet's [`crate::aggregate`], every derived float is a
//! fixed-order fold over hosts (then jobs) in index order, and the JSON
//! rendering deliberately excludes runtime knobs that must not influence
//! results (the worker count above all) — so `workers = 1` and
//! `workers = 8` render byte-identical documents, migration included.

use crate::FleetError;
use serde::{Deserialize, Serialize};
use stayaway_core::hit_ratio;
use stayaway_obs::{EventRecord, MetricsSnapshot};
use stayaway_telemetry::QosSummary;

/// The distilled result of one cluster host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostRollup {
    /// Host index.
    pub(crate) host: usize,
    /// Host name (from the scenario).
    pub(crate) name: String,
    /// Sensitive-workload registry key (first sensitive resident).
    pub(crate) sensitive: String,
    /// Derived host seed.
    pub seed: u64,
    /// Whole-run sensitive QoS accounting on this host.
    pub qos: QosSummary,
    /// Per-request SLO violation rate of this host's sensitive tenants.
    pub(crate) slo_violation_rate: f64,
    /// Requests that arrived on this host (residents + injected jobs).
    pub arrivals: u64,
    /// Invocations completed on this host.
    pub completed: u64,
    /// Requests dropped on queue overflow.
    pub(crate) dropped: u64,
    /// Mean machine utilisation over the run.
    pub mean_utilization: f64,
    /// Mean utilisation gained from batch work (cores / capacity).
    pub gained_utilization: f64,
    /// Nominal batch work completed on this host.
    pub batch_work: f64,
    /// Throttles issued by the host controller.
    pub throttles: u64,
    /// Resumes issued by the host controller.
    pub resumes: u64,
    /// Events evicted from the host's flight-recorder ring (0 when the
    /// cluster collects no events).
    pub events_dropped: u64,
    /// Interference verdicts checked against observed outcomes on this
    /// host.
    pub prediction_checks: u64,
    /// Checked verdicts the host controller got right.
    pub prediction_hits: u64,
    /// Observation samples the host's prediction plane sanitised before
    /// learning (non-finite features).
    pub samples_rejected: u64,
    /// Actions the engine rejected (e.g. pausing a detached tenant).
    pub rejected_actions: u64,
    /// True when the host controller warm-started from a registry
    /// template.
    pub(crate) imported_template: bool,
    /// Every job that ran here at some point, in job-id order.
    pub(crate) jobs_hosted: Vec<usize>,
    /// The host engine's event-timeline fingerprint.
    pub timeline_digest: u64,
}

/// The distilled result of one movable job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRollup {
    /// Job id.
    pub(crate) job: usize,
    /// Job name.
    pub name: String,
    /// Requests the job's stream generated.
    pub generated: u64,
    /// FNV-1a digest of the generated `(arrival, service)` stream —
    /// identical across cluster policies by construction.
    pub arrival_digest: u64,
    /// Requests dropped because the job waited unplaced too long.
    pub(crate) dropped_unplaced: u64,
    /// Every host the job ran on, in placement order.
    pub(crate) placements: Vec<usize>,
    /// Completed migrations.
    pub migrations: u64,
    /// Epochs spent waiting in the admission queue.
    pub(crate) queued_epochs: u64,
    /// True once the job was submitted during the run.
    pub arrived: bool,
    /// True once the job's stream ended and its work drained.
    pub(crate) departed: bool,
}

/// The aggregated result of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Cluster scenario name.
    pub scenario: String,
    /// Cluster policy that placed the jobs.
    pub cluster_policy: String,
    /// Per-host control policy.
    pub host_policy: String,
    /// The cluster seed everything derived from.
    pub seed: u64,
    /// Epochs run.
    pub epochs: u64,
    /// Control ticks per epoch.
    pub ticks_per_epoch: u64,
    /// Whether the migration verb was enabled.
    pub migration: bool,
    /// Pooled sensitive QoS accounting across hosts.
    pub qos: QosSummary,
    /// Pooled per-request SLO violation rate across hosts.
    pub slo_violation_rate: f64,
    /// Total nominal batch work completed across the cluster.
    pub total_batch_work: f64,
    /// Mean of the hosts' mean utilisations.
    pub(crate) mean_utilization: f64,
    /// Mean of the hosts' gained (batch) utilisations.
    pub(crate) mean_gained_utilization: f64,
    /// Total throttles across host controllers.
    pub throttles: u64,
    /// Total resumes across host controllers.
    pub resumes: u64,
    /// Total events evicted from the hosts' flight-recorder rings.
    pub events_dropped: u64,
    /// Total interference verdicts checked against observed outcomes.
    pub prediction_checks: u64,
    /// Total checked verdicts the host controllers got right.
    pub prediction_hits: u64,
    /// Total observation samples the prediction planes sanitised before
    /// learning.
    pub samples_rejected: u64,
    /// Jobs admitted (first placements).
    pub admissions: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// Defer actions taken.
    pub deferrals: u64,
    /// Queue actions taken.
    pub queue_actions: u64,
    /// Actions the runner rejected as invalid (counted, never applied).
    pub invalid_actions: u64,
    /// Highest admission-queue depth observed at any epoch boundary.
    pub max_queue_depth: u64,
    /// Mean admission-queue depth over epoch boundaries.
    pub(crate) mean_queue_depth: f64,
    /// Jobs still waiting or running when the run ended.
    pub jobs_unfinished: usize,
    /// Per-host rollups, in host-index order.
    pub per_host: Vec<HostRollup>,
    /// Per-job rollups, in job-id order.
    pub per_job: Vec<JobRollup>,
    /// Cluster-wide metrics rollup (host registries merged in index
    /// order, reduced to the stable view); `None` unless metrics
    /// collection was enabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Same-name histograms skipped during the metrics rollup because
    /// their units disagreed; zero for identically-registered hosts.
    pub(crate) metric_unit_mismatches: u64,
    /// The canonical cluster-wide event stream: per-host recorders plus
    /// the cluster plane's own recorder (scope = host count), merged
    /// into `(tick, layer, seq, scope)` order — byte-identical for any
    /// worker count; `None` unless event collection was enabled.
    pub events: Option<Vec<EventRecord>>,
}

impl ClusterOutcome {
    /// Pooled QoS satisfaction across hosts.
    pub fn satisfaction(&self) -> f64 {
        self.qos.satisfaction()
    }

    /// Pooled fraction of checked verdicts the host controllers got
    /// right; `None` when no verdict was checked anywhere.
    pub(crate) fn prediction_accuracy(&self) -> Option<f64> {
        hit_ratio(self.prediction_hits, self.prediction_checks)
    }

    /// Renders the outcome as pretty JSON. Deterministic: identical
    /// outcomes render to identical bytes, and the worker count is not
    /// part of the document.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Registry`] on serialisation failure.
    pub fn to_json(&self) -> Result<String, FleetError> {
        serde_json::to_string_pretty(self).map_err(|e| FleetError::Registry(e.to_string()))
    }

    /// The headline summary a post-run introspection server publishes on
    /// `/state`.
    pub fn state_json(&self) -> serde_json::Value {
        serde_json::json!({
            "plane": "cluster",
            "scenario": self.scenario.clone(),
            "cluster_policy": self.cluster_policy.clone(),
            "host_policy": self.host_policy.clone(),
            "seed": self.seed,
            "epochs": self.epochs,
            "ticks_per_epoch": self.ticks_per_epoch,
            "slo_violation_rate": self.slo_violation_rate,
            "total_batch_work": self.total_batch_work,
            "admissions": self.admissions,
            "migrations": self.migrations,
            "deferrals": self.deferrals,
            "queue_actions": self.queue_actions,
            "metric_unit_mismatches": self.metric_unit_mismatches
        })
    }
}
