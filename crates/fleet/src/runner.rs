//! The sharded fleet executor.
//!
//! Cells are distributed over the crate's worker pool (`pool::map_indexed`),
//! which hands each cell to exactly one thread and returns outcomes in
//! cell order. Determinism is preserved by construction:
//!
//! * cell plans (scenario, seed) are fixed before any worker starts;
//! * cells share nothing mutable while running;
//! * template sharing is **phased**: pioneer cells (the first cell of each
//!   distinct sensitive workload) run first, a barrier publishes their
//!   templates in cell-index order, and only then do follower cells run —
//!   each importing from a registry whose contents no longer change. The
//!   followers' own templates are published after the wave, again in
//!   cell-index order, using the registry's order-independent conflict
//!   resolution;
//! * aggregation folds cell outcomes in cell-index order.
//!
//! The result: [`FleetOutcome`] is a pure function of the configuration,
//! bit-identical for any worker count.

use crate::aggregate::FleetOutcome;
use crate::cell::{run_cell, CellOutcome, CellPlan};
use crate::config::FleetConfig;
use crate::pool::map_indexed;
use crate::registry::TemplateRegistry;
use crate::FleetError;
use stayaway_statespace::Template;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A configured fleet, ready to run.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    registry: Arc<TemplateRegistry>,
}

impl Fleet {
    /// Validates the configuration and prepares a fleet with a fresh,
    /// empty template registry.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        Self::with_registry(config, Arc::new(TemplateRegistry::new()))
    }

    /// Like [`Fleet::new`] but starting from an existing registry — e.g.
    /// one a previous fleet filled: every cell can then import.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn with_registry(
        config: FleetConfig,
        registry: Arc<TemplateRegistry>,
    ) -> Result<Self, FleetError> {
        config.validate()?;
        Ok(Fleet { config, registry })
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Builds the per-cell plans: scenario `i % mix`, policy
    /// `i % policies`, predictor `i % predictors` and source
    /// `i % sources`, reseeded with the derived cell seed.
    fn plans(&self) -> Vec<CellPlan> {
        (0..self.config.cells)
            .map(|idx| {
                let scenario = self.config.scenarios[idx % self.config.scenarios.len()].clone();
                let policy = self.config.policies[idx % self.config.policies.len()].clone();
                let predictor = self.config.predictors[idx % self.config.predictors.len()];
                let source = self.config.sources[idx % self.config.sources.len()].clone();
                CellPlan::new(idx, self.config.fleet_seed, scenario, policy)
                    .with_predictor(predictor)
                    .with_source(source)
                    .with_metrics_collection(self.config.collect_metrics)
                    .with_event_collection(self.config.collect_events)
            })
            .collect()
    }

    /// Runs every cell and aggregates the fleet outcome.
    ///
    /// # Errors
    ///
    /// Propagates the failure of the lowest-indexed failing cell of the
    /// first failing wave (a deterministic choice).
    pub fn run(&self) -> Result<FleetOutcome, FleetError> {
        let plans = self.plans();
        let mut outcomes: Vec<CellOutcome>;
        if self.config.share_templates {
            // Pioneers: the first *template-supporting* cell of each
            // sensitive workload that the registry cannot already serve.
            // Cells whose policy has no template support (baselines) never
            // pioneer and never import; they run in the follower wave.
            let mut pioneered = BTreeSet::new();
            let mut pioneer_jobs = Vec::new();
            let mut follower_plans = Vec::new();
            for plan in plans {
                let key = plan.sensitive_key();
                if plan.policy.supports_templates()
                    && !self.registry.contains(&key)
                    && pioneered.insert(key)
                {
                    pioneer_jobs.push((plan, None));
                } else {
                    follower_plans.push(plan);
                }
            }
            outcomes = self.run_wave(pioneer_jobs)?;
            // Barrier: publish pioneer knowledge in cell-index order, then
            // freeze the registry for the follower wave.
            for outcome in &outcomes {
                if let Some(template) = &outcome.template {
                    self.registry.publish(template.clone(), outcome.idx);
                }
            }
            let follower_jobs: Vec<(CellPlan, Option<Template>)> = follower_plans
                .into_iter()
                .map(|plan| {
                    // A baseline ignores the template it is offered.
                    let import = self.registry.lookup(&plan.sensitive_key());
                    (plan, import.map(|entry| entry.template))
                })
                .collect();
            let followers = self.run_wave(follower_jobs)?;
            for outcome in &followers {
                if let Some(template) = &outcome.template {
                    self.registry.publish(template.clone(), outcome.idx);
                }
            }
            outcomes.extend(followers);
        } else {
            let jobs = plans.into_iter().map(|p| (p, None)).collect();
            outcomes = self.run_wave(jobs)?;
        }
        outcomes.sort_by_key(|o| o.idx);
        Ok(FleetOutcome::aggregate(&self.config, &outcomes))
    }

    /// Executes one wave of `(plan, optional import)` jobs over the worker
    /// pool. Jobs arrive in cell-index order and outcomes come back in the
    /// same order, so collecting stops at the lowest-indexed failure.
    fn run_wave(
        &self,
        mut jobs: Vec<(CellPlan, Option<Template>)>,
    ) -> Result<Vec<CellOutcome>, FleetError> {
        let controller = &self.config.controller;
        let ticks = self.config.ticks;
        map_indexed(&mut jobs, self.config.workers, |(plan, import)| {
            run_cell(plan, controller, import.as_ref(), ticks)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use crate::source::SourceSpec;
    use stayaway_sim::scenario::Scenario;

    fn small_config(workers: usize, share: bool) -> FleetConfig {
        let mut config = FleetConfig::new(6, workers, 21);
        config.ticks = 90;
        config.share_templates = share;
        config
    }

    #[test]
    fn plans_round_robin_scenarios_and_derive_seeds() {
        let fleet = Fleet::new(small_config(2, false)).unwrap();
        let plans = fleet.plans();
        assert_eq!(plans.len(), 6);
        assert_eq!(plans[0].scenario.name(), plans[4].scenario.name());
        assert_ne!(plans[0].seed, plans[4].seed);
        assert_eq!(plans[1].idx, 1);
    }

    #[test]
    fn run_covers_every_cell() {
        let outcome = Fleet::new(small_config(3, false)).unwrap().run().unwrap();
        assert_eq!(outcome.per_cell.len(), 6);
        for (i, cell) in outcome.per_cell.iter().enumerate() {
            assert_eq!(cell.cell, i);
        }
        assert_eq!(outcome.cells_imported, 0);
    }

    #[test]
    fn sharing_populates_registry_and_warm_starts_followers() {
        let fleet = Fleet::new(small_config(2, true)).unwrap();
        let outcome = fleet.run().unwrap();
        // 4 distinct sensitive keys... vlc appears 3×, webservice-mix 1×:
        // 2 pioneers (vlc, webservice-mix), so 4 of 6 cells import.
        assert_eq!(fleet.registry.len(), 2);
        assert_eq!(outcome.cells_imported, 4);
        let imported = outcome
            .per_cell
            .iter()
            .filter(|c| c.imported_template)
            .count();
        assert_eq!(imported, 4);
    }

    #[test]
    fn workload_cells_share_templates_by_their_own_sensitive_tenant() {
        // `fleet --cells 4 --ticks 200 --seed 5 --scenario vlc+cpu-bomb
        // --source workload:cpu-bomb,workload:video-transcode-like
        // --share-templates`: the simulator prototype is never built, so
        // its name must not key the templates the workload cells learn.
        let mut config = FleetConfig::new(4, 2, 5);
        config.ticks = 200;
        config.share_templates = true;
        config.scenarios = vec![Scenario::vlc_with_cpubomb(5)];
        config.sources = ["cpu-bomb", "video-transcode-like"]
            .map(|scenario| SourceSpec::Workload {
                scenario: scenario.into(),
            })
            .to_vec();
        let fleet = Fleet::new(config).unwrap();
        let outcome = fleet.run().unwrap();
        let keys: Vec<&str> = outcome
            .per_cell
            .iter()
            .map(|c| c.sensitive.as_str())
            .collect();
        assert_eq!(keys, ["kv-front", "api", "kv-front", "api"]);
        // One pioneer per tenant; each follower imports from the pioneer
        // that sensed the same workload.
        assert_eq!(outcome.cells_imported, 2);
        assert_eq!(fleet.registry.len(), 2);
        for cell in outcome.per_cell.iter().filter(|c| c.imported_template) {
            let pioneer = outcome
                .per_cell
                .iter()
                .find(|c| c.sensitive == cell.sensitive)
                .unwrap();
            assert!(!pioneer.imported_template);
            assert_eq!(pioneer.source, cell.source, "cell {}", cell.cell);
        }
    }

    #[test]
    fn pre_seeded_registry_means_no_pioneers() {
        // Run one sharing fleet and hand its registry to a second fleet:
        // now every cell can import.
        let first = Fleet::new(small_config(2, true)).unwrap();
        first.run().unwrap();
        let second =
            Fleet::with_registry(small_config(2, true), Arc::clone(&first.registry)).unwrap();
        let outcome = second.run().unwrap();
        assert_eq!(outcome.cells_imported, 6);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut config = small_config(1, false);
        config.cells = 0;
        assert!(Fleet::new(config).is_err());
    }

    #[test]
    fn mixed_policy_fleet_is_deterministic_and_rolls_up_per_policy() {
        let run = |workers| {
            let mut config = small_config(workers, true);
            config.policies = vec![PolicySpec::StayAway, PolicySpec::Reactive];
            Fleet::new(config).unwrap().run().unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
        // Cells alternate policies; both appear in the per-cell summaries
        // and the per-policy rollups cover every cell exactly once.
        assert_eq!(a.per_cell[0].policy, "stay-away");
        assert_eq!(a.per_cell[1].policy, "reactive");
        assert_eq!(a.per_policy.len(), 2);
        assert_eq!(a.per_policy.iter().map(|r| r.cells).sum::<usize>(), 6);
        // Baselines never predict; only the stay-away rollup has checks.
        let reactive = a
            .per_policy
            .iter()
            .find(|r| r.policy == "reactive")
            .unwrap();
        assert_eq!(reactive.prediction_checks, 0);
    }

    #[test]
    fn metrics_rollup_is_byte_identical_across_worker_counts() {
        let run = |workers| {
            let mut config = small_config(workers, false);
            config.collect_metrics = true;
            Fleet::new(config).unwrap().run().unwrap()
        };
        let a = run(1);
        let b = run(4);
        let metrics = a.metrics.as_ref().expect("metrics collected");
        // The rollup carries controller counters summed across cells...
        let periods = metrics
            .counters
            .iter()
            .find(|c| c.name == "stayaway_controller_periods_total")
            .expect("periods counter in rollup");
        assert_eq!(periods.value, 6 * 90);
        // ...and the per-stage latency histograms reduced to counts.
        let sense = metrics
            .histograms
            .iter()
            .find(|h| h.name == "stayaway_controller_sense_latency_nanos")
            .expect("sense latency in rollup");
        assert_eq!(sense.hist.count, 6 * 90);
        assert_eq!(sense.hist.sum, 0, "stable view strips recorded nanos");
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn collecting_metrics_is_decision_inert() {
        let run = |collect| {
            let mut config = small_config(2, true);
            config.collect_metrics = collect;
            Fleet::new(config).unwrap().run().unwrap()
        };
        let bare = run(false);
        let observed = run(true);
        assert!(bare.metrics.is_none());
        assert!(observed.metrics.is_some());
        // Everything except the metrics rollup is bit-for-bit identical.
        let stripped = FleetOutcome {
            metrics: None,
            ..observed
        };
        assert_eq!(bare, stripped);
    }

    #[test]
    fn baseline_cells_never_pioneer_or_import() {
        let mut config = small_config(2, true);
        config.policies = vec![PolicySpec::Reactive];
        let fleet = Fleet::new(config).unwrap();
        let outcome = fleet.run().unwrap();
        assert_eq!(fleet.registry.len(), 0);
        assert_eq!(outcome.cells_imported, 0);
    }
}
