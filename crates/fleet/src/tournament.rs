//! The fleet-wide predictor tournament (DESIGN.md §15).
//!
//! A tournament sweeps every configured prediction plane over every named
//! workload scenario — the full predictor × scenario cross-product, with
//! `cells_per_combo` independently seeded cells per combination — inside
//! **one** deterministic fleet run, then ranks the predictors on the
//! fleet's per-cell summaries:
//!
//! 1. sensitive QoS satisfaction (higher is better),
//! 2. tick-level SLO-violation rate (lower is better),
//! 3. batch progress (higher is better),
//! 4. predictor name (a total, deterministic tie-break).
//!
//! Each ranking metric carries a percentile-bootstrap confidence interval
//! resampled from the per-cell values with a seeded RNG, so the intervals
//! — like everything else in [`TournamentOutcome::to_json`] — are
//! byte-identical for any worker count. Decision latency is measured by a
//! separate per-predictor calibration micro-run and reported **outside**
//! the JSON (wall-clock time is not deterministic); it informs, but never
//! decides, the ranking.

use crate::aggregate::{CellSummary, PredictorRollup};
use crate::config::FleetConfig;
use crate::runner::Fleet;
use crate::seed::derive_cell_seed;
use crate::source::SourceSpec;
use crate::FleetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stayaway_core::{Controller, ControllerConfig, Observability, PredictorKind};
use stayaway_obs::{MetricsRegistry, MetricsSnapshot};
use stayaway_sim::scenario::Scenario;

/// Seed-space tag separating tournament bootstrap streams from every
/// other derived seed in the fleet (cells, jobs).
const BOOTSTRAP_STREAM_TAG: u64 = 0xb001_57a9;

/// Ticks of the per-predictor decision-latency calibration micro-run.
const CALIBRATION_TICKS: u64 = 96;

/// Configuration of one predictor tournament.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Prediction planes entering the tournament; must be non-empty.
    pub predictors: Vec<PredictorKind>,
    /// Named workload scenarios (see [`stayaway_workload::library`]) the
    /// predictors are swept over; must be non-empty.
    pub scenarios: Vec<String>,
    /// Independently seeded cells per predictor × scenario combination.
    pub cells_per_combo: usize,
    /// Closed-loop ticks per cell.
    pub ticks: u64,
    /// Root seed of the tournament (cell seeds and bootstrap resampling
    /// streams all derive from it).
    pub seed: u64,
    /// Worker threads executing cells. Results are independent of this
    /// value; it only bounds parallelism.
    pub workers: usize,
    /// Bootstrap resamples behind each confidence interval.
    pub bootstrap_resamples: usize,
    /// When true, a per-predictor calibration micro-run measures mean
    /// forecast latency (reported text-only; never serialised, never
    /// ranked on). Off by default in tests, on in the CLI.
    pub calibrate_latency: bool,
    /// When true, every underlying fleet cell records into its own
    /// metrics registry and the outcome carries the deterministic
    /// fixed-order rollup (DESIGN.md §11). Decision-inert: standings are
    /// identical either way.
    pub collect_metrics: bool,
    /// Controller tunables shared by every cell (per-cell seed and
    /// predictor are overridden by the plan).
    pub controller: ControllerConfig,
}

impl TournamentConfig {
    /// The default tournament: all four predictors over the cpu-bomb,
    /// memory-bomb and flash-crowd workloads, three cells per
    /// combination, 256 ticks, without latency calibration.
    pub fn new(seed: u64) -> Self {
        TournamentConfig {
            predictors: PredictorKind::ALL.to_vec(),
            scenarios: vec![
                "cpu-bomb".into(),
                "memory-bomb".into(),
                "flash-crowd".into(),
            ],
            cells_per_combo: 3,
            ticks: 256,
            seed,
            workers: 4,
            bootstrap_resamples: 1000,
            calibrate_latency: false,
            collect_metrics: false,
            controller: ControllerConfig::default(),
        }
    }

    /// Total cells the tournament runs.
    pub fn cells(&self) -> usize {
        self.predictors.len() * self.scenarios.len() * self.cells_per_combo
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.predictors.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "tournament needs at least one predictor".into(),
            });
        }
        if self.scenarios.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "tournament needs at least one workload scenario".into(),
            });
        }
        for scenario in &self.scenarios {
            SourceSpec::Workload {
                scenario: scenario.clone(),
            }
            .validate()?;
        }
        if self.cells_per_combo == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "cells_per_combo must be positive".into(),
            });
        }
        if self.ticks == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "ticks must be positive".into(),
            });
        }
        if self.workers == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "workers must be positive".into(),
            });
        }
        self.controller.validate().map_err(FleetError::Core)
    }

    /// Lowers the tournament onto a fleet configuration realising the
    /// full predictor × scenario cross-product under the fleet's
    /// unchanged round-robin: with `S` scenario sources, the predictor
    /// list is expanded to length `P·S` where entry `i` is
    /// `predictors[(i / S) % P]` — so over `P·S·R` cells every
    /// combination receives exactly `R` cells, each with its own derived
    /// seed.
    fn fleet_config(&self) -> FleetConfig {
        let s = self.scenarios.len();
        let p = self.predictors.len();
        let expanded: Vec<PredictorKind> =
            (0..p * s).map(|i| self.predictors[(i / s) % p]).collect();
        let sources: Vec<SourceSpec> = self
            .scenarios
            .iter()
            .map(|scenario| SourceSpec::Workload {
                scenario: scenario.clone(),
            })
            .collect();
        let mut config = FleetConfig::new(self.cells(), self.workers, self.seed);
        config.ticks = self.ticks;
        // The workload sources carry the physics; the scenario prototype
        // only labels cells and is never built.
        config.scenarios = vec![Scenario::vlc_with_cpubomb(self.seed)];
        config.predictors = expanded;
        config.sources = sources;
        config.controller = self.controller.clone();
        config.collect_metrics = self.collect_metrics;
        config
    }
}

/// A mean with its percentile-bootstrap 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanCi {
    /// Fixed-order sample mean.
    pub mean: f64,
    /// 2.5th percentile of the bootstrap resample means.
    pub lo: f64,
    /// 97.5th percentile of the bootstrap resample means.
    pub hi: f64,
}

impl MeanCi {
    /// Bootstraps the mean of `values` with `resamples` draws from the
    /// given seeded RNG. Degenerate inputs (fewer than two values, zero
    /// resamples) collapse the interval onto the mean.
    pub fn bootstrap(values: &[f64], resamples: usize, rng: &mut StdRng) -> Self {
        if values.is_empty() {
            return MeanCi {
                mean: 0.0,
                lo: 0.0,
                hi: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        if n < 2 || resamples == 0 {
            return MeanCi {
                mean,
                lo: mean,
                hi: mean,
            };
        }
        let mut means = Vec::with_capacity(resamples);
        for _ in 0..resamples {
            let mut sum = 0.0;
            for _ in 0..n {
                sum += values[rng.gen_range(0..n)];
            }
            means.push(sum / n as f64);
        }
        means.sort_by(f64::total_cmp);
        let pick = |q: f64| means[((means.len() - 1) as f64 * q).round() as usize];
        MeanCi {
            mean,
            lo: pick(0.025),
            hi: pick(0.975),
        }
    }
}

/// One predictor's mean performance on one workload scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScore {
    /// Workload scenario name.
    pub scenario: String,
    /// Cells of this predictor × scenario combination.
    pub cells: usize,
    /// Mean per-cell QoS satisfaction.
    pub satisfaction: f64,
    /// Mean per-cell tick-level SLO-violation rate.
    pub slo_violation_rate: f64,
    /// Mean per-cell nominal batch work.
    pub batch_work: f64,
}

/// One predictor's final tournament standing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Standing {
    /// 1-based rank (1 = winner).
    pub rank: usize,
    /// Canonical predictor token.
    pub predictor: String,
    /// Cells this predictor ran across all scenarios.
    pub cells: usize,
    /// Per-cell QoS satisfaction, bootstrapped.
    pub satisfaction: MeanCi,
    /// Per-cell tick-level SLO-violation rate, bootstrapped.
    pub slo_violation_rate: MeanCi,
    /// Per-cell nominal batch work, bootstrapped.
    pub batch_work: MeanCi,
    /// Pooled prediction accuracy; `None` when no verdict was checked.
    pub prediction_accuracy: Option<f64>,
    /// Observation samples sanitised across this predictor's cells.
    pub samples_rejected: u64,
    /// Per-scenario breakdown, in configured scenario order.
    pub per_scenario: Vec<ScenarioScore>,
    /// Mean forecast wall-latency in nanoseconds from the calibration
    /// micro-run; `None` unless calibration ran and forecasts happened.
    /// Informational only: wall-clock time is non-deterministic, so this
    /// never enters [`TournamentOutcome::to_json`] and never ranks.
    #[serde(skip)]
    pub decide_nanos: Option<f64>,
}

/// The ranked result of one predictor tournament.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TournamentOutcome {
    /// Predictor tokens entered, in configured order.
    pub predictors: Vec<String>,
    /// Workload scenarios swept, in configured order.
    pub scenarios: Vec<String>,
    /// Cells per predictor × scenario combination.
    pub cells_per_combo: usize,
    /// Total cells run.
    pub cells: usize,
    /// Ticks per cell.
    pub ticks: u64,
    /// The tournament seed.
    pub seed: u64,
    /// Bootstrap resamples behind each confidence interval.
    pub bootstrap_resamples: usize,
    /// Standings, best first.
    pub standings: Vec<Standing>,
    /// The underlying fleet's per-predictor rollups, in order of first
    /// appearance across cells.
    pub per_predictor: Vec<PredictorRollup>,
    /// Tournament-wide metrics rollup: the per-cell registries merged in
    /// cell-index order and reduced to the stable view (latency
    /// histograms — the only wall-clock content — stripped); `None`
    /// unless [`TournamentConfig::collect_metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
    /// Same-name histograms skipped during the metrics rollup because
    /// their units disagreed; always zero for identically-registered
    /// cells.
    pub metric_unit_mismatches: u64,
}

impl TournamentOutcome {
    /// Renders the outcome as pretty JSON. Deterministic and
    /// byte-identical for any worker count: the projection carries no
    /// worker count and no wall-clock measurement (decision latency is
    /// deliberately excluded).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Registry`] on serialisation failure.
    pub fn to_json(&self) -> Result<String, FleetError> {
        serde_json::to_string_pretty(self).map_err(|e| FleetError::Registry(e.to_string()))
    }
}

/// Runs the tournament: one deterministic fleet over the full predictor ×
/// scenario cross-product, then ranking with bootstrap confidence
/// intervals (and, when configured, per-predictor latency calibration).
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for inconsistent configurations
/// and propagates fleet execution failures.
pub fn run_tournament(config: &TournamentConfig) -> Result<TournamentOutcome, FleetError> {
    config.validate()?;
    let fleet_outcome = Fleet::new(config.fleet_config())?.run()?;
    let mut standings: Vec<Standing> = config
        .predictors
        .iter()
        .enumerate()
        .map(|(idx, &predictor)| {
            let name = predictor.name();
            // Per-cell metric vectors in cell-index order — a fixed-order
            // basis for the bootstrap regardless of scheduling.
            let cells: Vec<&CellSummary> = fleet_outcome
                .per_cell
                .iter()
                .filter(|c| c.predictor == name)
                .collect();
            let satisfaction: Vec<f64> = cells.iter().map(|c| c.satisfaction).collect();
            let slo: Vec<f64> = cells.iter().map(|c| c.slo_violation_rate()).collect();
            let batch: Vec<f64> = cells.iter().map(|c| c.batch_work).collect();
            // One seeded stream per predictor, disjoint from cell seeds;
            // the three intervals consume it in fixed order.
            let mut rng = StdRng::seed_from_u64(derive_cell_seed(
                config.seed ^ BOOTSTRAP_STREAM_TAG,
                idx as u64,
            ));
            let rollup = fleet_outcome
                .per_predictor
                .iter()
                .find(|r| r.predictor == name);
            let per_scenario = config
                .scenarios
                .iter()
                .map(|scenario| {
                    let label = format!("workload:{scenario}");
                    let combo: Vec<&&CellSummary> =
                        cells.iter().filter(|c| c.source == label).collect();
                    let n = combo.len().max(1) as f64;
                    ScenarioScore {
                        scenario: scenario.clone(),
                        cells: combo.len(),
                        satisfaction: combo.iter().map(|c| c.satisfaction).sum::<f64>() / n,
                        slo_violation_rate: combo
                            .iter()
                            .map(|c| c.slo_violation_rate())
                            .sum::<f64>()
                            / n,
                        batch_work: combo.iter().map(|c| c.batch_work).sum::<f64>() / n,
                    }
                })
                .collect();
            Standing {
                rank: 0, // assigned after sorting
                predictor: name.to_string(),
                cells: cells.len(),
                satisfaction: MeanCi::bootstrap(
                    &satisfaction,
                    config.bootstrap_resamples,
                    &mut rng,
                ),
                slo_violation_rate: MeanCi::bootstrap(&slo, config.bootstrap_resamples, &mut rng),
                batch_work: MeanCi::bootstrap(&batch, config.bootstrap_resamples, &mut rng),
                prediction_accuracy: rollup.and_then(PredictorRollup::prediction_accuracy),
                samples_rejected: rollup.map_or(0, |r| r.samples_rejected),
                per_scenario,
                decide_nanos: config
                    .calibrate_latency
                    .then(|| calibrate_decide_latency(config, predictor))
                    .flatten(),
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        b.satisfaction
            .mean
            .total_cmp(&a.satisfaction.mean)
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
    Ok(TournamentOutcome {
        predictors: config
            .predictors
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        scenarios: config.scenarios.clone(),
        cells_per_combo: config.cells_per_combo,
        cells: config.cells(),
        ticks: config.ticks,
        seed: config.seed,
        bootstrap_resamples: config.bootstrap_resamples,
        standings,
        per_predictor: fleet_outcome.per_predictor,
        metrics: fleet_outcome.metrics,
        metric_unit_mismatches: fleet_outcome.metric_unit_mismatches,
    })
}

/// Measures one predictor's mean forecast wall-latency with a short
/// instrumented controller run (the `stayaway_predict_forecast_latency_nanos`
/// histogram). Wall-clock and therefore non-deterministic — the result is
/// reported text-only and never serialised.
fn calibrate_decide_latency(config: &TournamentConfig, predictor: PredictorKind) -> Option<f64> {
    let scenario = Scenario::vlc_with_twitter(config.seed);
    let mut harness = scenario.build_harness().ok()?;
    let registry = MetricsRegistry::new();
    let controller_config = ControllerConfig {
        seed: config.seed,
        predictor,
        ..config.controller.clone()
    };
    let mut controller = Controller::for_host_observed(
        controller_config,
        harness.host().spec(),
        Observability::enabled(registry.clone()),
    )
    .ok()?;
    harness.run(&mut controller, CALIBRATION_TICKS);
    let snapshot = registry.snapshot();
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "stayaway_predict_forecast_latency_nanos")?;
    if hist.hist.count == 0 {
        return None;
    }
    Some(hist.hist.sum as f64 / hist.hist.count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> TournamentConfig {
        let mut config = TournamentConfig::new(11);
        config.scenarios = vec!["cpu-bomb".into(), "memcached-like".into()];
        config.cells_per_combo = 1;
        config.ticks = 48;
        config.bootstrap_resamples = 64;
        config
    }

    #[test]
    fn default_config_is_valid_and_covers_the_cross_product() {
        let config = TournamentConfig::new(7);
        config.validate().unwrap();
        assert_eq!(config.cells(), 4 * 3 * 3);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for broken in [
            TournamentConfig {
                predictors: Vec::new(),
                ..TournamentConfig::new(1)
            },
            TournamentConfig {
                scenarios: Vec::new(),
                ..TournamentConfig::new(1)
            },
            TournamentConfig {
                scenarios: vec!["warp-core".into()],
                ..TournamentConfig::new(1)
            },
            TournamentConfig {
                cells_per_combo: 0,
                ..TournamentConfig::new(1)
            },
            TournamentConfig {
                ticks: 0,
                ..TournamentConfig::new(1)
            },
            TournamentConfig {
                workers: 0,
                ..TournamentConfig::new(1)
            },
        ] {
            assert!(broken.validate().is_err());
        }
    }

    #[test]
    fn cross_product_assigns_every_combo_the_same_cell_count() {
        let config = tiny_config();
        let outcome = run_tournament(&config).unwrap();
        assert_eq!(outcome.standings.len(), 4);
        for standing in &outcome.standings {
            assert_eq!(standing.cells, config.scenarios.len());
            assert_eq!(standing.per_scenario.len(), 2);
            for score in &standing.per_scenario {
                assert_eq!(score.cells, 1, "{}", standing.predictor);
            }
        }
    }

    #[test]
    fn ranks_are_dense_and_ordered_by_the_ranking_key() {
        let outcome = run_tournament(&tiny_config()).unwrap();
        for (i, s) in outcome.standings.iter().enumerate() {
            assert_eq!(s.rank, i + 1);
            assert!(s.satisfaction.lo <= s.satisfaction.mean + 1e-12);
            assert!(s.satisfaction.hi >= s.satisfaction.mean - 1e-12);
        }
        for pair in outcome.standings.windows(2) {
            assert!(
                pair[0].satisfaction.mean >= pair[1].satisfaction.mean
                    || (pair[0].satisfaction.mean == pair[1].satisfaction.mean),
                "standings must be sorted by satisfaction first"
            );
        }
    }

    #[test]
    fn bootstrap_is_deterministic_for_a_fixed_seed() {
        let values = [0.9, 0.8, 0.95, 0.7, 0.85];
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ci_a = MeanCi::bootstrap(&values, 500, &mut a);
        let ci_b = MeanCi::bootstrap(&values, 500, &mut b);
        assert_eq!(ci_a, ci_b);
        assert!(ci_a.lo <= ci_a.mean && ci_a.mean <= ci_a.hi);
        // Degenerate inputs collapse onto the mean.
        let mut rng = StdRng::seed_from_u64(1);
        let single = MeanCi::bootstrap(&[0.5], 100, &mut rng);
        assert_eq!((single.lo, single.hi), (single.mean, single.mean));
        let empty = MeanCi::bootstrap(&[], 100, &mut rng);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn metrics_collection_is_decision_inert_and_carried() {
        let bare = run_tournament(&tiny_config()).unwrap();
        let mut config = tiny_config();
        config.collect_metrics = true;
        let observed = run_tournament(&config).unwrap();
        let snapshot = observed.metrics.as_ref().expect("metrics requested");
        assert!(!snapshot.counters.is_empty());
        assert_eq!(observed.metric_unit_mismatches, 0);
        assert!(bare.metrics.is_none());
        let strip = |mut o: TournamentOutcome| {
            o.metrics = None;
            o
        };
        assert_eq!(strip(bare), strip(observed));
    }

    #[test]
    fn json_excludes_latency_and_worker_count() {
        let mut config = tiny_config();
        config.workers = 3;
        let outcome = run_tournament(&config).unwrap();
        let json = outcome.to_json().unwrap();
        assert!(!json.contains("workers"), "worker count leaked into JSON");
        assert!(
            !json.contains("decide_nanos"),
            "wall-clock leaked into JSON"
        );
        assert!(json.contains("\"standings\""));
        assert!(json.contains("\"per_predictor\""));
    }
}
