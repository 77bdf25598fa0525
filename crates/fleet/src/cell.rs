//! One fleet cell: an observation source + control-policy closed loop on
//! "one host".

use crate::policy::PolicySpec;
use crate::predictor::PredictorSpec;
use crate::seed::derive_cell_seed;
use crate::source::SourceSpec;
use crate::FleetError;
use stayaway_core::{ControllerConfig, ControllerStats, Observability};
use stayaway_obs::{
    attr, EventKind, EventRecord, FlightRecorder, Layer, MetricsRegistry, MetricsSnapshot, Span,
};
use stayaway_sim::scenario::Scenario;
use stayaway_sim::RunOutcome;
use stayaway_statespace::Template;
use stayaway_telemetry::drive;

/// The immutable plan for one cell, fixed before any worker starts.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Fleet-wide cell index.
    pub idx: usize,
    /// Seed derived from `(fleet_seed, idx)`.
    pub seed: u64,
    /// Scenario prototype this cell runs.
    pub scenario: Scenario,
    /// The control plane this cell runs.
    pub policy: PolicySpec,
    /// The prediction plane this cell's controller runs (ignored by
    /// baseline policies, which carry no predictor).
    pub predictor: PredictorSpec,
    /// The observation substrate this cell senses through.
    pub source: SourceSpec,
    /// When true, the cell records into its own [`MetricsRegistry`] and
    /// reports the snapshot in [`CellOutcome::metrics`]. Decision-inert.
    pub collect_metrics: bool,
    /// When true, the cell records typed flight-recorder events (scope =
    /// cell index) and reports them in [`CellOutcome::events`].
    /// Decision-inert.
    pub collect_events: bool,
}

impl CellPlan {
    /// Builds the plan of cell `idx` under `fleet_seed`, running `policy`
    /// against the simulator substrate.
    pub fn new(idx: usize, fleet_seed: u64, scenario: Scenario, policy: PolicySpec) -> Self {
        CellPlan {
            idx,
            seed: derive_cell_seed(fleet_seed, idx as u64),
            scenario,
            policy,
            predictor: PredictorSpec::default(),
            source: SourceSpec::Sim,
            collect_metrics: false,
            collect_events: false,
        }
    }

    /// Replaces the observation substrate (builder style).
    pub fn with_source(mut self, source: SourceSpec) -> Self {
        self.source = source;
        self
    }

    /// Replaces the prediction plane (builder style).
    pub fn with_predictor(mut self, predictor: PredictorSpec) -> Self {
        self.predictor = predictor;
        self
    }

    /// The predictor name this cell reports: the canonical token for
    /// predictive policies, [`PredictorSpec::NONE`] for baselines.
    pub fn predictor_label(&self) -> &'static str {
        if self.policy.uses_predictor() {
            self.predictor.name()
        } else {
            PredictorSpec::NONE
        }
    }

    /// Enables or disables per-cell metrics collection (builder style).
    pub fn with_metrics_collection(mut self, collect: bool) -> Self {
        self.collect_metrics = collect;
        self
    }

    /// Enables or disables per-cell flight-recorder event collection
    /// (builder style).
    pub fn with_event_collection(mut self, collect: bool) -> Self {
        self.collect_events = collect;
        self
    }

    /// The sensitive-workload key templates are registered under: the
    /// `<sensitive>` half of the scenario's `<sensitive>+<batch>` name.
    pub fn sensitive_key(&self) -> &str {
        let name = self.scenario.name();
        name.split('+').next().unwrap_or(name)
    }
}

/// Everything one finished cell reports back to the fleet.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Fleet-wide cell index.
    pub idx: usize,
    /// Scenario name the cell ran.
    pub scenario: String,
    /// Sensitive-workload registry key.
    pub sensitive: String,
    /// Canonical name of the policy the cell ran.
    pub policy: String,
    /// Predictor token the cell's controller ran (`kde`, `xapp`,
    /// `denoise`, `last-tick`), or `"-"` for baseline policies.
    pub predictor: String,
    /// Full source token the cell sensed through (`sim`, `trace:<path>`,
    /// `procfs` or `workload:<scenario>`).
    pub source: String,
    /// The cell's derived seed.
    pub seed: u64,
    /// Closed-loop run result.
    pub run: RunOutcome,
    /// Control-policy statistics at the end of the run (all-zero for
    /// baselines that track nothing).
    pub stats: ControllerStats,
    /// CPU capacity of the cell's host, for utilisation rollups.
    pub cpu_capacity: f64,
    /// True when the cell warm-started from a registry template.
    pub imported_template: bool,
    /// The template the cell learned (exported at end of run); `None` when
    /// the cell's policy has no template support.
    pub template: Option<Template>,
    /// Tick of the policy's first throttle, or `u64::MAX` if it never
    /// throttled (or does not track it).
    pub first_throttle_tick: u64,
    /// True when the first throttle was proactive (prediction- or
    /// template-driven, not a reaction to an observed violation).
    pub first_throttle_proactive: bool,
    /// Snapshot of the cell's metrics registry (controller, mapping and
    /// substrate instruments plus the cell runtime span); `None` unless
    /// [`CellPlan::collect_metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
    /// The cell's flight-recorder event stream (scope = cell index,
    /// already in canonical order); `None` unless
    /// [`CellPlan::collect_events`] was set.
    pub events: Option<Vec<EventRecord>>,
}

/// Runs one cell to completion: build the observation source from the
/// cell's [`SourceSpec`] (the simulator substrate injects the per-cell
/// seed), instantiate the cell's control policy against the source's host
/// spec, optionally import a registry template, drive the closed loop,
/// and export the learned template (when the policy supports one).
///
/// # Errors
///
/// Propagates source construction, policy construction, telemetry and
/// template import/export failures.
pub fn run_cell(
    plan: &CellPlan,
    controller: &ControllerConfig,
    import: Option<&Template>,
    ticks: u64,
) -> Result<CellOutcome, FleetError> {
    let registry = plan.collect_metrics.then(MetricsRegistry::new);
    let recorder = plan
        .collect_events
        .then(|| FlightRecorder::for_scope(plan.idx as u32, format!("cell:{}", plan.idx)));
    let cell_runtime = registry.as_ref().map(|r| {
        Span::new("fleet.cell").with_histogram(r.latency_histogram(
            "stayaway_fleet_cell_runtime_nanos",
            "Wall time of one fleet cell's closed-loop run",
        ))
    });
    let mut source = plan.source.build_instrumented(
        &plan.scenario,
        plan.seed,
        registry.as_ref(),
        recorder.as_ref(),
    )?;
    // Trace cells take the controller's host spec from the trace header
    // (the capacities the recording was made against); cells without one
    // fall back to the scenario prototype's host.
    let host_spec = source
        .meta()
        .host
        .unwrap_or_else(|| *plan.scenario.host_spec());
    let config = ControllerConfig {
        seed: plan.seed,
        predictor: plan.predictor.kind(),
        ..controller.clone()
    };
    let mut obs = match &registry {
        Some(registry) => Observability::enabled(registry.clone()),
        None => Observability::disabled(),
    };
    if let Some(recorder) = &recorder {
        obs = obs.with_recorder(recorder.clone());
    }
    let mut policy = plan.policy.build_observed(&config, &host_spec, obs)?;
    let mut imported_template = false;
    if let Some(template) = import {
        imported_template = policy.import_template(template)?;
        if imported_template {
            if let Some(recorder) = &recorder {
                recorder.record(
                    0,
                    Layer::Fleet,
                    EventKind::TemplateImport,
                    None,
                    vec![
                        attr("states", template.len() as u64),
                        attr("violations", template.violation_count() as u64),
                    ],
                );
            }
        }
    }
    let run = {
        let _guard = cell_runtime.as_ref().map(|span| span.start(0));
        drive(source.as_mut(), policy.as_mut(), ticks)?
    };
    let template = policy.export_template(plan.sensitive_key())?;
    let (first_throttle_tick, first_throttle_proactive) =
        policy.first_throttle().unwrap_or((u64::MAX, false));
    Ok(CellOutcome {
        idx: plan.idx,
        scenario: plan.scenario.name().to_string(),
        sensitive: plan.sensitive_key().to_string(),
        policy: plan.policy.name().to_string(),
        predictor: plan.predictor_label().to_string(),
        source: plan.source.label(),
        seed: plan.seed,
        stats: policy.stats(),
        cpu_capacity: host_spec.cpu_cores,
        imported_template,
        template,
        first_throttle_tick,
        first_throttle_proactive,
        metrics: registry.map(|r| r.snapshot()),
        events: recorder.map(|r| r.events()),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stayaway_plan(idx: usize, seed: u64, scenario: Scenario) -> CellPlan {
        CellPlan::new(idx, seed, scenario, PolicySpec::StayAway)
    }

    #[test]
    fn sensitive_key_is_the_name_prefix() {
        let plan = stayaway_plan(0, 7, Scenario::vlc_with_cpubomb(7));
        assert_eq!(plan.sensitive_key(), "vlc");
        assert_eq!(plan.seed, derive_cell_seed(7, 0));
    }

    #[test]
    fn run_cell_produces_a_template_and_stats() {
        let plan = stayaway_plan(3, 7, Scenario::vlc_with_cpubomb(7));
        let out = run_cell(&plan, &ControllerConfig::default(), None, 150).unwrap();
        assert_eq!(out.idx, 3);
        assert_eq!(out.scenario, "vlc+cpu-bomb");
        assert_eq!(out.policy, "stay-away");
        assert_eq!(out.run.timeline.len(), 150);
        assert!(out.stats.periods == 150);
        assert!(!out.template.as_ref().unwrap().is_empty());
        assert!(!out.imported_template);
        // CPUBomb forces throttles; the cold first throttle is reactive.
        assert!(out.first_throttle_tick < u64::MAX);
        assert!(!out.first_throttle_proactive);
    }

    #[test]
    fn first_throttle_is_the_first_pause_however_many_decisions_follow() {
        // The storm violates almost every tick, so the controller makes
        // more decisions (> 4096) than a bounded ring of them would retain.
        // The reported first throttle must be the run's first actuation,
        // not the oldest throttle some ring still holds at the end.
        let plan =
            stayaway_plan(0, 7, Scenario::vlc_with_cpubomb(7)).with_source(SourceSpec::Workload {
                scenario: "multi-tenant-storm".into(),
            });
        let out = run_cell(&plan, &ControllerConfig::default(), None, 4_500).unwrap();
        let s = &out.stats;
        let decisions = s.throttles + s.resumes + s.violations_observed + s.violations_predicted;
        assert!(decisions > 4096, "only {decisions} decisions");
        assert!(s.throttles > 1, "later throttles exist to be confused with");
        let first_pause = out
            .run
            .timeline
            .iter()
            .find(|r| r.actions > 0)
            .expect("the cell throttled");
        assert_eq!(out.first_throttle_tick, first_pause.tick);
    }

    #[test]
    fn metrics_collection_reports_a_snapshot_without_changing_the_run() {
        let plan = stayaway_plan(0, 7, Scenario::vlc_with_cpubomb(7));
        let bare = run_cell(&plan, &ControllerConfig::default(), None, 150).unwrap();
        let observed_plan = plan.with_metrics_collection(true);
        let observed = run_cell(&observed_plan, &ControllerConfig::default(), None, 150).unwrap();
        assert!(bare.metrics.is_none());
        let metrics = observed.metrics.as_ref().expect("snapshot collected");
        assert!(!metrics.is_empty());
        assert!(metrics
            .histograms
            .iter()
            .any(|h| h.name == "stayaway_fleet_cell_runtime_nanos" && h.hist.count == 1));
        // Decision-inert: the instrumented run matches the bare run.
        assert_eq!(bare.run, observed.run);
        assert_eq!(bare.stats, observed.stats);
        assert_eq!(bare.template, observed.template);
    }

    #[test]
    fn identical_plans_give_identical_outcomes() {
        let plan = stayaway_plan(1, 9, Scenario::vlc_with_twitter(9));
        let a = run_cell(&plan, &ControllerConfig::default(), None, 120).unwrap();
        let b = run_cell(&plan, &ControllerConfig::default(), None, 120).unwrap();
        assert_eq!(a.run, b.run);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn importing_a_template_enables_proactive_first_contact() {
        // Learn on one cell, warm-start another of the same sensitive app.
        let teacher = stayaway_plan(0, 11, Scenario::vlc_with_cpubomb(11));
        let learned = run_cell(&teacher, &ControllerConfig::default(), None, 250).unwrap();
        let template = learned.template.unwrap();
        assert!(template.violation_count() > 0);

        let student = stayaway_plan(1, 11, Scenario::vlc_with_soplex(11));
        let warm = run_cell(&student, &ControllerConfig::default(), Some(&template), 250).unwrap();
        assert!(warm.imported_template);
        assert!(
            warm.first_throttle_proactive,
            "warm cell should throttle proactively on first contact"
        );
    }

    #[test]
    fn baseline_cell_runs_without_templates_or_stats() {
        let plan = CellPlan::new(
            0,
            13,
            Scenario::vlc_with_cpubomb(13),
            PolicySpec::Reactive { cooldown: 10 },
        );
        let out = run_cell(&plan, &ControllerConfig::default(), None, 150).unwrap();
        assert_eq!(out.policy, "reactive");
        assert!(out.template.is_none());
        assert_eq!(out.stats, ControllerStats::default());
        // Baselines do not track their first throttle.
        assert_eq!(out.first_throttle_tick, u64::MAX);
        // A template offered to a non-supporting policy is ignored.
        let teacher = stayaway_plan(1, 13, Scenario::vlc_with_cpubomb(13));
        let learned = run_cell(&teacher, &ControllerConfig::default(), None, 150).unwrap();
        let with_offer = run_cell(
            &plan,
            &ControllerConfig::default(),
            learned.template.as_ref(),
            150,
        )
        .unwrap();
        assert!(!with_offer.imported_template);
        assert_eq!(with_offer.run, out.run);
    }
}
