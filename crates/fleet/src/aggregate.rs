//! Fleet-level rollups of per-cell outcomes.
//!
//! Aggregation folds cell (and cluster host) results in index order
//! through one tally, so every derived float is a fixed-order sum —
//! bit-identical regardless of how cells were scheduled across workers.
//! The JSON rendering therefore is too.
//!
//! Not to be confused with `stayaway_core::aggregate`, which shares the
//! name but not the job: that module aggregates *within one observation*
//! (batch VMs → one logical VM, §5) to build the controller's measurement
//! vector, while this one aggregates *across finished cells* into fleet
//! and per-policy statistics. The two operate on different inputs at
//! different times and share no code beyond [`stayaway_core::hit_ratio`] —
//! the one genuinely common fold, kept in `stayaway-core` (its single
//! home) and reused here.

use crate::cell::CellOutcome;
use crate::config::FleetConfig;
use crate::FleetError;
use serde::{Deserialize, Serialize};
use stayaway_core::{hit_ratio, ControllerStats};
use stayaway_obs::{merge_streams, EventRecord, MetricsSnapshot};
use stayaway_telemetry::QosSummary;

/// The one fold over finished cells and cluster hosts behind every rollup:
/// pooled QoS, utilisation sums, batch work and controller counters, added
/// in index order, means divided by `max(1)` — each rollup copies out the
/// fields it declares.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) count: usize,
    pub(crate) qos: QosSummary,
    utilization: f64,
    gained_utilization: f64,
    pub(crate) batch_work: f64,
    pub(crate) throttles: u64,
    pub(crate) resumes: u64,
    pub(crate) violations_predicted: u64,
    pub(crate) prediction_checks: u64,
    pub(crate) prediction_hits: u64,
    pub(crate) events_dropped: u64,
    pub(crate) samples_rejected: u64,
}

impl Tally {
    /// The empty tally. Its QoS starts from [`QosSummary::new`] — a
    /// derived default would pin `worst` at 0.
    pub(crate) fn new() -> Self {
        Tally {
            qos: QosSummary::new(),
            ..Tally::default()
        }
    }

    /// Adds one finished cell or host.
    pub(crate) fn add(
        &mut self,
        qos: &QosSummary,
        mean_utilization: f64,
        gained_utilization: f64,
        batch_work: f64,
        stats: &ControllerStats,
    ) {
        self.count += 1;
        self.qos.absorb(qos);
        self.utilization += mean_utilization;
        self.gained_utilization += gained_utilization;
        self.batch_work += batch_work;
        self.throttles += stats.throttles;
        self.resumes += stats.resumes;
        self.violations_predicted += stats.violations_predicted;
        self.prediction_checks += stats.prediction_checks;
        self.prediction_hits += stats.prediction_hits;
        self.events_dropped += stats.events_dropped;
        self.samples_rejected += stats.samples_rejected;
    }

    /// Mean of the added mean utilisations.
    pub(crate) fn mean_utilization(&self) -> f64 {
        self.utilization / self.count.max(1) as f64
    }

    /// Mean of the added gained (batch) utilisations.
    pub(crate) fn mean_gained_utilization(&self) -> f64 {
        self.gained_utilization / self.count.max(1) as f64
    }
}

/// The tally of `key`'s group, opened at the key's first appearance.
fn group<'g, 'a>(groups: &'g mut Vec<(&'a str, Tally)>, key: &'a str) -> &'g mut Tally {
    let at = match groups.iter().position(|(k, _)| *k == key) {
        Some(at) => at,
        None => {
            groups.push((key, Tally::new()));
            groups.len() - 1
        }
    };
    &mut groups[at].1
}

/// The distilled result of one cell, embedded in the fleet outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Fleet-wide cell index.
    pub(crate) cell: usize,
    /// Scenario the cell ran.
    pub(crate) scenario: String,
    /// Sensitive-workload registry key.
    pub(crate) sensitive: String,
    /// Canonical name of the policy the cell ran.
    pub policy: String,
    /// Predictor token the cell's controller ran, or `"-"` for baseline
    /// policies (which carry no prediction plane).
    pub predictor: String,
    /// Full source token the cell sensed through (`sim`, `trace:<path>`,
    /// `procfs` or `workload:<scenario>`).
    pub source: String,
    /// The cell's derived seed.
    pub seed: u64,
    /// Ticks the sensitive application was active.
    pub active_ticks: u64,
    /// QoS violation ticks.
    pub violations: u64,
    /// Fraction of active ticks meeting the QoS requirement.
    pub(crate) satisfaction: f64,
    /// Mean machine utilisation over the run.
    pub(crate) mean_utilization: f64,
    /// Mean utilisation gained from batch co-location.
    pub(crate) gained_utilization: f64,
    /// Nominal batch work completed.
    pub batch_work: f64,
    /// Throttle actions issued by the controller.
    pub throttles: u64,
    /// Resume actions issued by the controller.
    pub resumes: u64,
    /// Representative states learned.
    pub states: usize,
    /// Events evicted from the cell's flight-recorder ring (0 when the cell
    /// collects no events).
    pub(crate) events_dropped: u64,
    /// True when the cell warm-started from a registry template.
    pub(crate) imported_template: bool,
    /// True when the cell's first throttle was proactive.
    pub(crate) first_throttle_proactive: bool,
}

impl CellSummary {
    /// Tick-level SLO-violation rate: violation ticks over active ticks
    /// (0 when the sensitive application never ran).
    pub(crate) fn slo_violation_rate(&self) -> f64 {
        if self.active_ticks == 0 {
            0.0
        } else {
            self.violations as f64 / self.active_ticks as f64
        }
    }

    fn from_outcome(o: &CellOutcome) -> Self {
        CellSummary {
            cell: o.idx,
            scenario: o.scenario.clone(),
            sensitive: o.sensitive.clone(),
            policy: o.policy.clone(),
            predictor: o.predictor.clone(),
            source: o.source.clone(),
            seed: o.seed,
            active_ticks: o.run.qos.active_ticks,
            violations: o.run.qos.violations,
            satisfaction: o.run.qos.satisfaction(),
            mean_utilization: o.run.mean_utilization(),
            gained_utilization: o.run.mean_gained_utilization(o.cpu_capacity),
            batch_work: o.run.batch_work,
            throttles: o.stats.throttles,
            resumes: o.stats.resumes,
            states: o.stats.states,
            events_dropped: o.stats.events_dropped,
            imported_template: o.imported_template,
            first_throttle_proactive: o.first_throttle_proactive,
        }
    }
}

/// Per-policy rollup of the cells that ran one control plane, for
/// mixed-policy fleets (cohort vs control-group comparisons in one run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PolicyRollup {
    /// Canonical policy name.
    pub(crate) policy: String,
    /// Cells that ran this policy.
    pub(crate) cells: usize,
    /// Pooled QoS accounting over those cells.
    pub(crate) qos: QosSummary,
    /// Mean of those cells' gained (batch) utilisations.
    pub(crate) mean_gained_utilization: f64,
    /// Total nominal batch work completed by those cells.
    pub(crate) total_batch_work: f64,
    /// Total throttle actions.
    pub(crate) throttles: u64,
    /// Total resume actions.
    pub(crate) resumes: u64,
    /// Total events evicted from this cohort's flight-recorder rings —
    /// surfaces which control plane is churning hardest under memory
    /// pressure.
    pub(crate) events_dropped: u64,
    /// Total checked predictions (zero for non-predictive policies).
    pub(crate) prediction_checks: u64,
    /// Total checked predictions that matched reality.
    pub(crate) prediction_hits: u64,
    /// Total observation samples sanitised before they could poison a
    /// model (sense-stage rejections plus predictor-reported ones).
    pub(crate) samples_rejected: u64,
}

impl PolicyRollup {
    fn new(policy: &str, t: &Tally) -> Self {
        PolicyRollup {
            policy: policy.to_string(),
            cells: t.count,
            qos: t.qos,
            mean_gained_utilization: t.mean_gained_utilization(),
            total_batch_work: t.batch_work,
            throttles: t.throttles,
            resumes: t.resumes,
            events_dropped: t.events_dropped,
            prediction_checks: t.prediction_checks,
            prediction_hits: t.prediction_hits,
            samples_rejected: t.samples_rejected,
        }
    }

    /// QoS satisfaction over this policy's pooled active ticks.
    pub(crate) fn satisfaction(&self) -> f64 {
        self.qos.satisfaction()
    }
}

/// Per-predictor rollup of the Stay-Away cells that ran one prediction
/// plane (DESIGN.md §15), for mixed-predictor fleets and the tournament.
/// Baseline cells (predictor `"-"`) join no predictor rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorRollup {
    /// Canonical predictor token (`kde`, `xapp`, `denoise`, `last-tick`).
    pub predictor: String,
    /// Cells that ran this predictor.
    pub cells: usize,
    /// Pooled QoS accounting over those cells.
    pub(crate) qos: QosSummary,
    /// Mean of those cells' gained (batch) utilisations.
    pub(crate) mean_gained_utilization: f64,
    /// Total nominal batch work completed by those cells.
    pub(crate) total_batch_work: f64,
    /// Total throttle actions.
    pub(crate) throttles: u64,
    /// Total resume actions.
    pub(crate) resumes: u64,
    /// Total predicted violations.
    pub(crate) violations_predicted: u64,
    /// Total checked predictions.
    pub(crate) prediction_checks: u64,
    /// Total checked predictions that matched reality.
    pub(crate) prediction_hits: u64,
    /// Total observation samples sanitised before they could poison a
    /// model (sense-stage rejections plus predictor-reported ones).
    pub(crate) samples_rejected: u64,
}

impl PredictorRollup {
    fn new(predictor: &str, t: &Tally) -> Self {
        PredictorRollup {
            predictor: predictor.to_string(),
            cells: t.count,
            qos: t.qos,
            mean_gained_utilization: t.mean_gained_utilization(),
            total_batch_work: t.batch_work,
            throttles: t.throttles,
            resumes: t.resumes,
            violations_predicted: t.violations_predicted,
            prediction_checks: t.prediction_checks,
            prediction_hits: t.prediction_hits,
            samples_rejected: t.samples_rejected,
        }
    }

    /// QoS satisfaction over this predictor's pooled active ticks.
    pub(crate) fn satisfaction(&self) -> f64 {
        self.qos.satisfaction()
    }

    /// Tick-level SLO-violation rate over this predictor's pooled active
    /// ticks (0 when the cohort never ran).
    pub(crate) fn slo_violation_rate(&self) -> f64 {
        if self.qos.active_ticks == 0 {
            0.0
        } else {
            self.qos.violations as f64 / self.qos.active_ticks as f64
        }
    }

    /// Prediction accuracy over this predictor's pooled checks; `None`
    /// when no verdict was ever checked.
    pub(crate) fn prediction_accuracy(&self) -> Option<f64> {
        hit_ratio(self.prediction_hits, self.prediction_checks)
    }
}

/// The aggregated result of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Number of cells run.
    pub(crate) cells: usize,
    /// Ticks each cell ran for.
    pub ticks_per_cell: u64,
    /// The fleet seed everything derived from.
    pub(crate) fleet_seed: u64,
    /// Whether template sharing was enabled.
    pub(crate) share_templates: bool,
    /// Fleet-wide QoS accounting (all cells' active ticks pooled).
    pub qos: QosSummary,
    /// Mean of the cells' mean machine utilisations.
    pub mean_utilization: f64,
    /// Mean of the cells' gained (batch) utilisations.
    pub mean_gained_utilization: f64,
    /// Total nominal batch work completed across the fleet.
    pub total_batch_work: f64,
    /// Total throttle actions.
    pub throttles: u64,
    /// Total resume actions.
    pub resumes: u64,
    /// Total predicted violations.
    pub violations_predicted: u64,
    /// Total checked predictions.
    pub prediction_checks: u64,
    /// Total checked predictions that matched reality.
    pub prediction_hits: u64,
    /// Total events evicted from the cells' flight-recorder rings.
    pub events_dropped: u64,
    /// Total observation samples sanitised fleet-wide (sense-stage
    /// rejections plus predictor-reported ones).
    pub samples_rejected: u64,
    /// Cells that warm-started from a registry template.
    pub cells_imported: usize,
    /// Cells whose *first* throttle was proactive — the §6 head-start
    /// effect, visible fleet-wide when template sharing is on.
    pub proactive_first_throttles: usize,
    /// Per-policy rollups, in order of first appearance across cells
    /// (deterministic: cell plans are a pure function of the config).
    pub(crate) per_policy: Vec<PolicyRollup>,
    /// Per-predictor rollups over the predictive (Stay-Away) cells, in
    /// order of first appearance; empty when no cell ran a predictor.
    pub per_predictor: Vec<PredictorRollup>,
    /// Per-cell summaries, in cell-index order.
    pub per_cell: Vec<CellSummary>,
    /// Fleet-wide metrics rollup: the per-cell registries merged in
    /// cell-index order and reduced to the stable view (latency
    /// histograms stripped to invocation counts, so the rollup is
    /// byte-identical for any worker count); `None` unless
    /// [`FleetConfig::collect_metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
    /// Same-name histograms skipped during the metrics rollup because
    /// their units disagreed (see
    /// [`stayaway_obs::hist::MergeOutcome`]); zero for
    /// identically-registered cells. Always zero when metrics
    /// collection is off.
    pub(crate) metric_unit_mismatches: u64,
    /// The canonical fleet-wide event stream: per-cell flight-recorder
    /// streams merged into `(tick, layer, seq, scope)` order —
    /// byte-identical for any worker count; `None` unless
    /// [`FleetConfig::collect_events`] was set.
    pub events: Option<Vec<EventRecord>>,
}

impl FleetOutcome {
    /// Folds per-cell outcomes (already sorted by cell index) into the
    /// fleet rollup.
    pub fn aggregate(config: &FleetConfig, outcomes: &[CellOutcome]) -> Self {
        let mut fleet = Tally::new();
        let mut per_policy: Vec<(&str, Tally)> = Vec::new();
        let mut per_predictor: Vec<(&str, Tally)> = Vec::new();
        let mut cells_imported = 0;
        let mut proactive_first_throttles = 0;
        let mut metrics: Option<MetricsSnapshot> = None;
        let mut metric_unit_mismatches = 0u64;
        let mut event_streams: Option<Vec<Vec<EventRecord>>> = None;
        for o in outcomes {
            // Merge in cell-index order (outcomes arrive sorted), so the
            // rollup is a fixed-order fold regardless of scheduling.
            if let Some(cell_metrics) = &o.metrics {
                metric_unit_mismatches += metrics
                    .get_or_insert_with(MetricsSnapshot::default)
                    .merge(cell_metrics);
            }
            if let Some(cell_events) = &o.events {
                event_streams
                    .get_or_insert_with(Vec::new)
                    .push(cell_events.clone());
            }
            let utilization = o.run.mean_utilization();
            let gained = o.run.mean_gained_utilization(o.cpu_capacity);
            let add =
                |t: &mut Tally| t.add(&o.run.qos, utilization, gained, o.run.batch_work, &o.stats);
            add(group(&mut per_policy, &o.policy));
            if o.predictor != crate::predictor::NONE {
                add(group(&mut per_predictor, &o.predictor));
            }
            add(&mut fleet);
            cells_imported += usize::from(o.imported_template);
            proactive_first_throttles += usize::from(o.first_throttle_proactive);
        }
        FleetOutcome {
            cells: outcomes.len(),
            ticks_per_cell: config.ticks,
            fleet_seed: config.fleet_seed,
            share_templates: config.share_templates,
            qos: fleet.qos,
            mean_utilization: fleet.mean_utilization(),
            mean_gained_utilization: fleet.mean_gained_utilization(),
            total_batch_work: fleet.batch_work,
            throttles: fleet.throttles,
            resumes: fleet.resumes,
            violations_predicted: fleet.violations_predicted,
            prediction_checks: fleet.prediction_checks,
            prediction_hits: fleet.prediction_hits,
            events_dropped: fleet.events_dropped,
            samples_rejected: fleet.samples_rejected,
            cells_imported,
            proactive_first_throttles,
            per_policy: per_policy
                .iter()
                .map(|(policy, t)| PolicyRollup::new(policy, t))
                .collect(),
            per_predictor: per_predictor
                .iter()
                .map(|(predictor, t)| PredictorRollup::new(predictor, t))
                .collect(),
            per_cell: outcomes.iter().map(CellSummary::from_outcome).collect(),
            metrics: metrics.map(|m| m.stable_view()),
            metric_unit_mismatches,
            events: event_streams.map(merge_streams),
        }
    }

    /// Fleet-wide QoS satisfaction (pooled active ticks).
    pub fn satisfaction(&self) -> f64 {
        self.qos.satisfaction()
    }

    /// Fleet-wide prediction accuracy (pooled checks); `None` when no
    /// prediction was ever checked.
    pub(crate) fn prediction_accuracy(&self) -> Option<f64> {
        hit_ratio(self.prediction_hits, self.prediction_checks)
    }

    /// Renders the outcome as pretty JSON. Deterministic: identical
    /// outcomes render to identical bytes.
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
            "plane": "fleet",
            "cells": self.cells as u64,
            "ticks_per_cell": self.ticks_per_cell,
            "fleet_seed": self.fleet_seed,
            "total_batch_work": self.total_batch_work,
            "mean_utilization": self.mean_utilization,
            "mean_gained_utilization": self.mean_gained_utilization,
            "throttles": self.throttles,
            "resumes": self.resumes,
            "violations_predicted": self.violations_predicted,
            "events_dropped": self.events_dropped,
            "metric_unit_mismatches": self.metric_unit_mismatches
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{run_cell, CellPlan};
    use crate::policy::PolicySpec;
    use stayaway_core::ControllerConfig;
    use stayaway_sim::scenario::Scenario;

    fn outcomes() -> Vec<CellOutcome> {
        let plans = [
            CellPlan::new(0, 5, Scenario::vlc_with_cpubomb(5), PolicySpec::StayAway),
            CellPlan::new(1, 5, Scenario::vlc_with_twitter(5), PolicySpec::StayAway),
        ];
        plans
            .iter()
            .map(|p| run_cell(p, &ControllerConfig::default(), None, 100).unwrap())
            .collect()
    }

    #[test]
    fn aggregate_pools_qos_and_sums_counters() {
        let outs = outcomes();
        let mut config = FleetConfig::new(2, 1, 5);
        config.ticks = 100;
        let fleet = FleetOutcome::aggregate(&config, &outs);
        assert_eq!(fleet.cells, 2);
        assert_eq!(
            fleet.qos.active_ticks,
            outs[0].run.qos.active_ticks + outs[1].run.qos.active_ticks
        );
        assert_eq!(
            fleet.throttles,
            outs[0].stats.throttles + outs[1].stats.throttles
        );
        assert_eq!(fleet.per_cell.len(), 2);
        assert_eq!(fleet.per_cell[1].cell, 1);
        assert!(fleet.satisfaction() > 0.0 && fleet.satisfaction() <= 1.0);
        assert!(fleet.prediction_accuracy().is_none_or(|a| a <= 1.0));
        // Metrics collection was off, so the rollup is absent.
        assert!(fleet.metrics.is_none());
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let outs = outcomes();
        let mut config = FleetConfig::new(2, 1, 5);
        config.ticks = 100;
        let a = FleetOutcome::aggregate(&config, &outs);
        let b = FleetOutcome::aggregate(&config, &outs);
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn json_round_trips_through_serde() {
        let outs = outcomes();
        let mut config = FleetConfig::new(2, 1, 5);
        config.ticks = 100;
        let fleet = FleetOutcome::aggregate(&config, &outs);
        let json = fleet.to_json().unwrap();
        let back: FleetOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(fleet, back);
    }

    #[test]
    fn empty_fleet_aggregates_to_neutral_values() {
        let config = FleetConfig::new(1, 1, 0);
        let fleet = FleetOutcome::aggregate(&config, &[]);
        assert_eq!(fleet.cells, 0);
        assert_eq!(fleet.satisfaction(), 1.0);
        assert_eq!(fleet.mean_utilization, 0.0);
    }
}
