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
//! and per-policy statistics and, when two or more prediction planes ran,
//! their ranked standings. The two operate on different inputs at
//! different times and share no code beyond [`stayaway_core::hit_ratio`] —
//! the one genuinely common fold, kept in `stayaway-core` (its single
//! home) and reused here.

use crate::cell::CellOutcome;
use crate::config::FleetConfig;
use crate::seed::derive_cell_seed;
use crate::FleetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stayaway_core::{hit_ratio, ControllerStats};
use stayaway_obs::{merge_streams, EventRecord, MetricsSnapshot};
use stayaway_telemetry::{QosSummary, RunOutcome};

/// The one fold over finished cells and cluster hosts behind every rollup:
/// pooled QoS, the runs' means, batch work and controller counters, added
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
    /// Adds one finished cell or host: its run on a host of
    /// `cpu_capacity` cores, and its controller's counters.
    pub(crate) fn add(&mut self, run: &RunOutcome, cpu_capacity: f64, stats: &ControllerStats) {
        self.count += 1;
        self.qos.absorb(&run.qos);
        self.utilization += run.mean_utilization();
        self.gained_utilization += run.mean_gained_utilization(cpu_capacity);
        self.batch_work += run.batch_work;
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
            groups.push((key, Tally::default()));
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

/// Bootstrap resamples behind each confidence interval of the ranking.
const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Seed-space tag separating the ranking's bootstrap streams from every
/// other derived seed in the fleet (cells, jobs).
const BOOTSTRAP_STREAM_TAG: u64 = 0xb001_57a9;

/// A mean with its percentile-bootstrap 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanCi {
    /// Fixed-order sample mean.
    pub(crate) mean: f64,
    /// 2.5th percentile of the bootstrap resample means.
    pub(crate) lo: f64,
    /// 97.5th percentile of the bootstrap resample means.
    pub(crate) hi: f64,
}

impl MeanCi {
    /// Bootstraps the mean of `values` with [`BOOTSTRAP_RESAMPLES`] draws
    /// from the given seeded RNG. Fewer than two values collapse the
    /// interval onto the mean.
    pub(crate) fn bootstrap(values: &[f64], rng: &mut StdRng) -> Self {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n.max(1) as f64;
        if n < 2 {
            return MeanCi {
                mean,
                lo: mean,
                hi: mean,
            };
        }
        let mut means: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
            .map(|_| {
                let mut sum = 0.0;
                for _ in 0..n {
                    sum += values[rng.gen_range(0..n)];
                }
                sum / n as f64
            })
            .collect();
        means.sort_by(f64::total_cmp);
        let pick = |q: f64| means[((means.len() - 1) as f64 * q).round() as usize];
        MeanCi {
            mean,
            lo: pick(0.025),
            hi: pick(0.975),
        }
    }
}

/// One predictor's mean performance on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ScenarioScore {
    /// The cells' scenario label ([`CellSummary`]'s `scenario`).
    pub(crate) scenario: String,
    /// Cells of this predictor on this scenario.
    pub(crate) cells: usize,
    /// Mean per-cell QoS satisfaction.
    pub(crate) satisfaction: f64,
    /// Mean per-cell tick-level SLO-violation rate.
    pub(crate) slo_violation_rate: f64,
    /// Mean per-cell nominal batch work.
    pub(crate) batch_work: f64,
}

/// One prediction plane's standing among the Stay-Away cells of a fleet
/// that ran two or more planes (DESIGN.md §15). Baseline cells (predictor
/// `"-"`) join no standing. Planes rank by
///
/// 1. sensitive QoS satisfaction (higher is better),
/// 2. tick-level SLO-violation rate (lower is better),
/// 3. batch progress (higher is better),
/// 4. predictor name (a total, deterministic tie-break),
///
/// each a per-cell mean with a percentile-bootstrap confidence interval
/// resampled from a seeded stream, so the standings are byte-identical
/// for any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorRollup {
    /// 1-based rank (1 = winner).
    pub(crate) rank: usize,
    /// Canonical predictor token (`kde`, `xapp`, `denoise`, `last-tick`).
    pub predictor: String,
    /// Cells that ran this predictor.
    pub cells: usize,
    /// Per-cell QoS satisfaction, bootstrapped.
    pub satisfaction: MeanCi,
    /// Per-cell tick-level SLO-violation rate, bootstrapped.
    pub slo_violation_rate: MeanCi,
    /// Per-cell nominal batch work, bootstrapped.
    pub batch_work: MeanCi,
    /// Pooled prediction accuracy; `None` when no verdict was checked.
    pub(crate) prediction_accuracy: Option<f64>,
    /// Observation samples sanitised across this predictor's cells
    /// (sense-stage rejections plus predictor-reported ones).
    pub(crate) samples_rejected: u64,
    /// Per-scenario breakdown, in order of first appearance.
    pub(crate) per_scenario: Vec<ScenarioScore>,
}

impl PredictorRollup {
    /// Ranks the predictor groups: group `g`'s intervals draw, in a fixed
    /// order, from the stream [`derive_cell_seed`]`(fleet_seed ^ tag, g)`,
    /// and its per-cell values are taken in cell-index order.
    fn rank(fleet_seed: u64, groups: &[(&str, Tally)], per_cell: &[CellSummary]) -> Vec<Self> {
        let mut standings: Vec<Self> = (groups.iter().enumerate())
            .map(|(g, &(predictor, ref tally))| {
                let cells: Vec<&CellSummary> = per_cell
                    .iter()
                    .filter(|c| c.predictor == predictor)
                    .collect();
                let column = |metric: fn(&CellSummary) -> f64| -> Vec<f64> {
                    cells.iter().map(|c| metric(c)).collect()
                };
                let mut scenarios: Vec<(&str, Vec<&CellSummary>)> = Vec::new();
                for &cell in &cells {
                    match scenarios.iter_mut().find(|(s, _)| *s == cell.scenario) {
                        Some((_, combo)) => combo.push(cell),
                        None => scenarios.push((&cell.scenario, vec![cell])),
                    }
                }
                let per_scenario = (scenarios.into_iter())
                    .map(|(scenario, combo)| {
                        let mean = |metric: fn(&CellSummary) -> f64| {
                            combo.iter().map(|c| metric(c)).sum::<f64>() / combo.len() as f64
                        };
                        ScenarioScore {
                            scenario: scenario.to_string(),
                            cells: combo.len(),
                            satisfaction: mean(|c| c.satisfaction),
                            slo_violation_rate: mean(CellSummary::slo_violation_rate),
                            batch_work: mean(|c| c.batch_work),
                        }
                    })
                    .collect();
                let seed = derive_cell_seed(fleet_seed ^ BOOTSTRAP_STREAM_TAG, g as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                PredictorRollup {
                    rank: 0, // assigned after sorting
                    predictor: predictor.to_string(),
                    cells: cells.len(),
                    satisfaction: MeanCi::bootstrap(&column(|c| c.satisfaction), &mut rng),
                    slo_violation_rate: MeanCi::bootstrap(
                        &column(CellSummary::slo_violation_rate),
                        &mut rng,
                    ),
                    batch_work: MeanCi::bootstrap(&column(|c| c.batch_work), &mut rng),
                    prediction_accuracy: hit_ratio(tally.prediction_hits, tally.prediction_checks),
                    samples_rejected: tally.samples_rejected,
                    per_scenario,
                }
            })
            .collect();
        standings.sort_by(|a, b| {
            (b.satisfaction.mean.total_cmp(&a.satisfaction.mean))
                .then(
                    a.slo_violation_rate
                        .mean
                        .total_cmp(&b.slo_violation_rate.mean),
                )
                .then(b.batch_work.mean.total_cmp(&a.batch_work.mean))
                .then(a.predictor.cmp(&b.predictor))
        });
        for (i, standing) in standings.iter_mut().enumerate() {
            standing.rank = i + 1;
        }
        standings
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
    /// The predictors' standings, best first; empty unless the fleet's
    /// Stay-Away cells ran two or more distinct predictors.
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
        let mut fleet = Tally::default();
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
            let add = |t: &mut Tally| t.add(&o.run, o.cpu_capacity, &o.stats);
            add(group(&mut per_policy, &o.policy));
            if o.predictor != crate::predictor::NONE {
                add(group(&mut per_predictor, &o.predictor));
            }
            add(&mut fleet);
            cells_imported += usize::from(o.imported_template);
            proactive_first_throttles += usize::from(o.first_throttle_proactive);
        }
        let per_cell: Vec<CellSummary> = outcomes.iter().map(CellSummary::from_outcome).collect();
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
            per_predictor: match per_predictor.len() {
                0 | 1 => Vec::new(),
                _ => PredictorRollup::rank(config.fleet_seed, &per_predictor, &per_cell),
            },
            per_cell,
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
    fn ranks_are_dense_and_ordered_by_the_ranking_key() {
        let mut config = FleetConfig::new(8, 2, 11);
        config.ticks = 48;
        config.sources =
            crate::SourceSpec::parse_list("workload:cpu-bomb,workload:memcached-like").unwrap();
        config.predictors = crate::predictor::parse_list("kde,xapp,denoise,last-tick").unwrap();
        let outcome = crate::Fleet::new(config).unwrap().run().unwrap();
        let standings = &outcome.per_predictor;
        assert_eq!(standings.len(), 4);
        for (i, s) in standings.iter().enumerate() {
            assert_eq!(s.rank, i + 1);
            assert_eq!(s.per_scenario.len(), 2);
            assert!(s.satisfaction.lo <= s.satisfaction.mean + 1e-12);
            assert!(s.satisfaction.hi >= s.satisfaction.mean - 1e-12);
        }
        // Higher satisfaction, then lower slo-violation rate, then more
        // batch work, then the name.
        let key = |s: &PredictorRollup| {
            (
                -s.satisfaction.mean,
                s.slo_violation_rate.mean,
                -s.batch_work.mean,
                s.predictor.clone(),
            )
        };
        for pair in standings.windows(2) {
            assert!(
                key(&pair[0]) < key(&pair[1]),
                "{} ranks above {}",
                pair[0].predictor,
                pair[1].predictor
            );
        }
        // The planes tie on the first two keys here, so the order above is
        // the batch-work tie-break's.
        assert!(standings.windows(2).any(|pair| {
            key(&pair[0]).0 == key(&pair[1]).0
                && key(&pair[0]).1 == key(&pair[1]).1
                && key(&pair[0]).2 != key(&pair[1]).2
        }));
        // The standings round-trip through their JSON.
        let back: FleetOutcome = serde_json::from_str(&outcome.to_json().unwrap()).unwrap();
        assert_eq!(back, outcome);
    }

    #[test]
    fn bootstrap_is_deterministic_for_a_fixed_seed() {
        let values = [0.9, 0.8, 0.95, 0.7, 0.85];
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ci_a = MeanCi::bootstrap(&values, &mut a);
        assert_eq!(ci_a, MeanCi::bootstrap(&values, &mut b));
        assert!(ci_a.lo < ci_a.mean && ci_a.mean < ci_a.hi);
        // One value collapses the interval onto the mean.
        let single = MeanCi::bootstrap(&[0.5], &mut a);
        assert_eq!((single.lo, single.mean, single.hi), (0.5, 0.5, 0.5));
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
