//! Fleet configuration: how many cells, how many workers, which scenarios.

use crate::policy::PolicySpec;
use crate::source::SourceSpec;
use crate::FleetError;
use stayaway_core::{ControllerConfig, PredictorKind};
use stayaway_sim::apps::WebWorkload;
use stayaway_sim::scenario::{BatchKind, Scenario};

/// Configuration of one fleet run.
///
/// The fleet round-robins the `scenarios` prototypes across its cells:
/// cell `i` runs `scenarios[i % scenarios.len()]` reseeded with
/// [`crate::derive_cell_seed`]`(fleet_seed, i)`. A prototype's physics
/// (workload trace, batch start ticks) are shared by every cell built from
/// it — modelling a fleet of hosts serving the same service tier — while
/// the monitoring-noise and controller randomness diverge per cell.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of co-location cells to run.
    pub cells: usize,
    /// Worker threads executing cells. Results are independent of this
    /// value; it only bounds parallelism.
    pub workers: usize,
    /// Closed-loop ticks per cell.
    pub ticks: u64,
    /// Root seed; every cell seed derives from it.
    pub fleet_seed: u64,
    /// When true, pioneer cells publish learned templates into the shared
    /// [`crate::TemplateRegistry`] and later cells of the same sensitive
    /// workload import the best match before their first tick (§6 at
    /// fleet scale).
    pub share_templates: bool,
    /// When true, every cell records into its own metrics registry
    /// (DESIGN.md §11) and the fleet outcome carries the deterministic
    /// fixed-order rollup of those registries. Decision-inert: the run's
    /// actions and statistics are identical either way.
    pub collect_metrics: bool,
    /// When true, every cell records typed flight-recorder events
    /// (DESIGN.md §16) and the fleet outcome carries their canonical
    /// merged stream. Decision-inert and worker-count independent.
    pub collect_events: bool,
    /// Scenario prototypes round-robined across cells; must be non-empty.
    pub scenarios: Vec<Scenario>,
    /// Control planes round-robined across cells (cell `i` runs
    /// `policies[i % policies.len()]`); must be non-empty. A single-entry
    /// list gives a homogeneous fleet; several entries run a mixed-policy
    /// population in one deterministic experiment.
    pub policies: Vec<PolicySpec>,
    /// Prediction planes round-robined across Stay-Away cells (cell `i`
    /// runs `predictors[i % predictors.len()]`); must be non-empty.
    /// Baseline policies ignore the assignment. The default single-entry
    /// KDE list keeps every cell on the paper's design; several entries
    /// run a mixed-predictor population — the substrate of the predictor
    /// tournament ([`crate::tournament`]).
    pub predictors: Vec<PredictorKind>,
    /// Observation substrates round-robined across cells (cell `i` senses
    /// through `sources[i % sources.len()]`); must be non-empty. The
    /// default single-entry `[SourceSpec::Sim]` list keeps every cell on
    /// the simulator; mixing in trace-replay cells lets one fleet compare
    /// live and recorded telemetry deterministically.
    pub sources: Vec<SourceSpec>,
    /// Controller tunables shared by every Stay-Away cell (the per-cell
    /// seed overrides [`ControllerConfig::seed`]); ignored by baseline
    /// policies.
    pub controller: ControllerConfig,
}

impl FleetConfig {
    /// A fleet of `cells` cells over `workers` threads running the
    /// [`FleetConfig::standard_mix`] for 384 ticks (the binary's default
    /// run length) without template sharing.
    pub fn new(cells: usize, workers: usize, fleet_seed: u64) -> Self {
        FleetConfig {
            cells,
            workers,
            ticks: 384,
            fleet_seed,
            share_templates: false,
            collect_metrics: false,
            collect_events: false,
            scenarios: Self::standard_mix(fleet_seed),
            policies: vec![PolicySpec::StayAway],
            predictors: vec![PredictorKind::default()],
            sources: vec![SourceSpec::Sim],
            controller: ControllerConfig::default(),
        }
    }

    /// The default scenario mix: the paper's three VLC co-locations plus a
    /// mixed-workload webservice — four service tiers a production fleet
    /// would run side by side.
    pub fn standard_mix(seed: u64) -> Vec<Scenario> {
        vec![
            Scenario::vlc_with_cpubomb(seed),
            Scenario::vlc_with_twitter(seed),
            Scenario::vlc_with_soplex(seed),
            Scenario::webservice_with(WebWorkload::Mix, BatchKind::Soplex, seed),
        ]
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] describing the first problem
    /// found (zero cells/workers/ticks, an empty scenario list, or an
    /// invalid controller configuration).
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.cells == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "cells must be positive".into(),
            });
        }
        if self.workers == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "workers must be positive".into(),
            });
        }
        if self.ticks == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "ticks must be positive".into(),
            });
        }
        if self.scenarios.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "scenario mix must not be empty".into(),
            });
        }
        if self.policies.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "policy mix must not be empty".into(),
            });
        }
        if self.predictors.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "predictor mix must not be empty".into(),
            });
        }
        if self.sources.is_empty() {
            return Err(FleetError::InvalidConfig {
                reason: "source mix must not be empty".into(),
            });
        }
        for source in &self.sources {
            source.validate()?;
        }
        self.controller.validate().map_err(FleetError::Core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_construction_is_valid() {
        let c = FleetConfig::new(16, 4, 7);
        c.validate().unwrap();
        assert_eq!(c.cells, 16);
        assert_eq!(c.workers, 4);
        assert_eq!(c.scenarios.len(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = FleetConfig::new(4, 2, 1);
        for broken in [
            FleetConfig {
                cells: 0,
                ..base.clone()
            },
            FleetConfig {
                workers: 0,
                ..base.clone()
            },
            FleetConfig {
                ticks: 0,
                ..base.clone()
            },
            FleetConfig {
                scenarios: Vec::new(),
                ..base.clone()
            },
            FleetConfig {
                policies: Vec::new(),
                ..base.clone()
            },
            FleetConfig {
                predictors: Vec::new(),
                ..base.clone()
            },
            FleetConfig {
                sources: Vec::new(),
                ..base.clone()
            },
            FleetConfig {
                sources: vec![SourceSpec::Trace {
                    path: String::new(),
                }],
                ..base.clone()
            },
            FleetConfig {
                controller: ControllerConfig {
                    prediction_samples: 0,
                    ..ControllerConfig::default()
                },
                ..base.clone()
            },
        ] {
            assert!(broken.validate().is_err());
        }
    }
}
