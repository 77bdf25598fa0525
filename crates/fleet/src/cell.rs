//! One host's closed loop — observation source + control policy + one
//! [`Observability`] bundle — as the single function ([`run_host`]) every
//! single-host CLI command and every fleet cell ([`run_cell`]) runs through.

use crate::policy::PolicySpec;
use crate::predictor;
use crate::seed::derive_cell_seed;
use crate::source::SourceSpec;
use crate::FleetError;
use stayaway_core::{
    ControlPolicy, ControllerConfig, ControllerStats, Observability, PredictorKind,
};
use stayaway_obs::{
    attr, EventKind, EventRecord, FlightRecorder, Histogram, Layer, MetricsRegistry,
    MetricsSnapshot,
};
use stayaway_sim::scenario::Scenario;
use stayaway_statespace::Template;
use stayaway_telemetry::{
    drive, HostSpec, ObservationSource, RecordingSource, RequestQos, RunOutcome,
};
use std::io::Write;

/// The immutable plan for one cell, fixed before any worker starts.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Fleet-wide cell index.
    pub(crate) idx: usize,
    /// Seed derived from `(fleet_seed, idx)`.
    pub(crate) seed: u64,
    /// Scenario prototype this cell runs.
    pub(crate) scenario: Scenario,
    /// The control plane this cell runs.
    pub(crate) policy: PolicySpec,
    /// The prediction plane this cell's controller runs (ignored by
    /// baseline policies, which carry no predictor).
    pub(crate) predictor: PredictorKind,
    /// The observation substrate this cell senses through.
    pub(crate) source: SourceSpec,
    /// When true, the cell records into its own [`MetricsRegistry`] and
    /// reports the snapshot in [`CellOutcome::metrics`]. Decision-inert.
    pub(crate) collect_metrics: bool,
    /// When true, the cell records typed flight-recorder events (scope =
    /// cell index) and reports them in [`CellOutcome::events`].
    /// Decision-inert.
    pub(crate) collect_events: bool,
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
            predictor: PredictorKind::default(),
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
    pub(crate) fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// The predictor name this cell reports: the canonical token for
    /// predictive policies, [`predictor::NONE`] for baselines.
    pub(crate) fn predictor_label(&self) -> &'static str {
        if self.policy.uses_predictor() {
            self.predictor.name()
        } else {
            predictor::NONE
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

    /// The sensitive-workload key templates are registered under — named
    /// after what the cell senses, so a template only ever warm-starts a
    /// cell protecting the same application: the `<sensitive>` half of the
    /// scenario's `<sensitive>+<batch>` name on the simulator, the
    /// scenario's sensitive tenant on the workload engine (the key
    /// [`crate::Cluster`] hosts use, so the two planes serve each other),
    /// the source label for a trace or the live host.
    pub(crate) fn sensitive_key(&self) -> String {
        match &self.source {
            SourceSpec::Sim => {
                let name = self.scenario.name();
                name.split('+').next().unwrap_or(name).to_string()
            }
            SourceSpec::Workload { scenario } => stayaway_workload::by_name(scenario)
                .ok()
                .and_then(|s| s.sensitive_tenant().map(|t| t.name.clone()))
                .unwrap_or_else(|| self.source.label()),
            SourceSpec::Trace { .. } | SourceSpec::Procfs => self.source.label(),
        }
    }
}

/// Everything one finished cell reports back to the fleet.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Fleet-wide cell index.
    pub(crate) idx: usize,
    /// Scenario the cell ran ([`SourceSpec::scenario_label`]).
    pub(crate) scenario: String,
    /// Sensitive-workload registry key.
    pub(crate) sensitive: String,
    /// Canonical name of the policy the cell ran.
    pub(crate) policy: String,
    /// Predictor token the cell's controller ran (`kde`, `xapp`,
    /// `denoise`, `last-tick`), or `"-"` for baseline policies.
    pub(crate) predictor: String,
    /// Full source token the cell sensed through (`sim`, `trace:<path>`,
    /// `procfs` or `workload:<scenario>`).
    pub(crate) source: String,
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
    pub(crate) imported_template: bool,
    /// The template the cell learned (exported at end of run); `None` when
    /// the cell's policy has no template support.
    pub(crate) template: Option<Template>,
    /// True when the first throttle was proactive (prediction- or
    /// template-driven, not a reaction to an observed violation).
    pub(crate) first_throttle_proactive: bool,
    /// Snapshot of the cell's metrics registry (controller, mapping and
    /// substrate instruments plus the cell runtime span); `None` unless
    /// `CellPlan::collect_metrics` was set.
    pub metrics: Option<MetricsSnapshot>,
    /// The cell's flight-recorder event stream (scope = cell index,
    /// already in canonical order); `None` unless
    /// `CellPlan::collect_events` was set.
    pub events: Option<Vec<EventRecord>>,
}

/// One host opened for its closed loop: the observation source, the
/// control policy built against the source's host spec, and the one
/// instrument bundle both record into. [`open_host`] is its only
/// constructor.
pub(crate) struct OpenHost<S> {
    pub(crate) source: S,
    pub(crate) policy: Box<dyn ControlPolicy + Send>,
    pub(crate) obs: Observability,
    pub(crate) host: HostSpec,
    pub(crate) imported_template: bool,
}

impl<S> OpenHost<S> {
    /// The policy's statistics. The host owns the recorder, so it — not
    /// the policy — reports what the ring evicted: a baseline tracks
    /// nothing, yet the workload source sharing its recorder does.
    pub(crate) fn stats(&self) -> ControllerStats {
        ControllerStats {
            events_dropped: self.obs.recorder().map_or(0, FlightRecorder::dropped),
            ..self.policy.stats()
        }
    }
}

/// Opens one host — the one place a source meets a policy, for a fleet
/// cell and a cluster host alike. Builds `policy` against the source's
/// own host spec (a trace header's capacities, a workload scenario's
/// host), else `fallback`, with its instruments in `obs`, then
/// warm-starts it from `import`, recording a `TemplateImport` event when
/// the policy took the template (baselines ignore it).
pub(crate) fn open_host<S: ObservationSource>(
    source: S,
    fallback: &HostSpec,
    policy: &PolicySpec,
    controller: &ControllerConfig,
    obs: &Observability,
    import: Option<&Template>,
) -> Result<OpenHost<S>, FleetError> {
    let host = source.meta().host.unwrap_or(*fallback);
    let mut policy = policy.build(controller, &host, obs.clone())?;
    let mut imported_template = false;
    if let Some(template) = import {
        imported_template = policy.import_template(template)?;
        if let (true, Some(recorder)) = (imported_template, obs.recorder()) {
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
    Ok(OpenHost {
        source,
        policy,
        obs: obs.clone(),
        host,
        imported_template,
    })
}

/// The bundle of a fleet cell or cluster host: an exported registry when
/// `metrics` is set, a flight recorder scoped to `idx` and named
/// `<kind>:<idx>` when `events` is.
pub(crate) fn host_observability(
    kind: &str,
    idx: usize,
    metrics: bool,
    events: bool,
) -> Observability {
    let obs = if metrics {
        Observability::enabled(MetricsRegistry::new())
    } else {
        Observability::disabled()
    };
    if events {
        obs.with_recorder(FlightRecorder::for_scope(
            idx as u32,
            format!("{kind}:{idx}"),
        ))
    } else {
        obs
    }
}

/// One host's closed loop as data: which substrate, which control plane,
/// and the optional extras — instruments, a template in, a template out, a
/// trace tee. [`run_host`] is the only place that turns one into a run;
/// every single-host `stayaway` command and [`run_cell`] go through it.
pub struct HostRun<'a> {
    /// The observation substrate.
    pub source: &'a SourceSpec,
    /// The simulator prototype ([`SourceSpec::Sim`] builds its harness
    /// from it) and the fallback host spec for substrates that know none.
    pub scenario: &'a Scenario,
    /// Substrate seed (simulator noise, workload arrivals).
    pub seed: u64,
    /// The control plane.
    pub policy: &'a PolicySpec,
    /// Controller configuration, consulted by predictive policies only.
    pub controller: &'a ControllerConfig,
    /// Control periods to run; finite traces may end sooner.
    pub ticks: u64,
    /// Where the source and the policy record to; one bundle per run.
    pub obs: &'a Observability,
    /// Template to warm-start the policy from.
    pub import: Option<&'a Template>,
    /// Sensitive-workload key to export the learned template under.
    pub export_as: Option<&'a str>,
    /// Sink teed every observation, as a replayable JSONL trace.
    pub trace_out: Option<Box<dyn Write + 'a>>,
    /// Records the closed loop's wall time (not setup or export), once.
    pub loop_nanos: Option<&'a Histogram>,
}

/// What one host's closed loop reports back.
#[derive(Debug, Clone)]
pub struct HostOutcome {
    /// Closed-loop run result.
    pub run: RunOutcome,
    /// Control-policy statistics at the end of the run (all-zero for
    /// baselines that track nothing, but for `events_dropped`, which is
    /// the recorder's eviction count under every policy).
    pub stats: ControllerStats,
    /// The host the policy was built against: the substrate's own spec
    /// (trace header, workload scenario), else the scenario prototype's.
    pub host: HostSpec,
    /// True when the policy warm-started from [`HostRun::import`].
    pub(crate) imported_template: bool,
    /// The learned template; `None` unless [`HostRun::export_as`] was set
    /// and the policy supports templates.
    pub template: Option<Template>,
    /// Tick and proactivity of the policy's first throttle, when it
    /// throttled and tracks it.
    pub(crate) first_throttle: Option<(u64, bool)>,
    /// Per-request QoS, when the substrate simulates requests.
    pub requests: Option<RequestQos>,
}

/// Runs one host's closed loop to completion: build the observation
/// source from its [`SourceSpec`], open the host (policy and template
/// import, `open_host`), optionally tee a trace, drive, optionally
/// export the learned template.
///
/// # Errors
///
/// Propagates source construction, policy construction, telemetry and
/// template import/export failures.
pub fn run_host(plan: HostRun<'_>) -> Result<HostOutcome, FleetError> {
    let source = plan.source.build(plan.scenario, plan.seed, plan.obs)?;
    let mut open = open_host(
        source,
        plan.scenario.host_spec(),
        plan.policy,
        plan.controller,
        plan.obs,
        plan.import,
    )?;
    if let Some(out) = plan.trace_out {
        open.source = Box::new(RecordingSource::new(open.source, out)?);
    }
    let started = std::time::Instant::now();
    let run = drive(open.source.as_mut(), open.policy.as_mut(), plan.ticks)?;
    if let Some(histogram) = plan.loop_nanos {
        histogram.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let template = match plan.export_as {
        Some(key) => open.policy.export_template(key)?,
        None => None,
    };
    Ok(HostOutcome {
        run,
        stats: open.stats(),
        host: open.host,
        imported_template: open.imported_template,
        template,
        first_throttle: open.policy.first_throttle(),
        requests: open.source.request_qos(),
    })
}

/// Runs one cell to completion — [`run_host`] under the cell's derived
/// seed (substrate and controller), predictor plane and per-cell
/// instruments, exporting the learned template under the cell's
/// sensitive key.
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
    let obs = host_observability("cell", plan.idx, plan.collect_metrics, plan.collect_events);
    let cell_runtime = obs.exported_registry().map(|r| {
        r.latency_histogram(
            "stayaway_fleet_cell_runtime_nanos",
            "Wall time of one fleet cell's closed-loop run",
        )
    });
    let sensitive = plan.sensitive_key();
    let out = run_host(HostRun {
        source: &plan.source,
        scenario: &plan.scenario,
        seed: plan.seed,
        policy: &plan.policy,
        controller: &ControllerConfig {
            seed: plan.seed,
            predictor: plan.predictor,
            ..controller.clone()
        },
        ticks,
        obs: &obs,
        import,
        export_as: Some(&sensitive),
        trace_out: None,
        loop_nanos: cell_runtime.as_ref(),
    })?;
    Ok(CellOutcome {
        idx: plan.idx,
        scenario: plan.source.scenario_label(plan.scenario.name()),
        sensitive,
        policy: plan.policy.name().to_string(),
        predictor: plan.predictor_label().to_string(),
        source: plan.source.label(),
        seed: plan.seed,
        stats: out.stats,
        cpu_capacity: out.host.cpu_cores,
        imported_template: out.imported_template,
        template: out.template,
        first_throttle_proactive: out.first_throttle.is_some_and(|(_, proactive)| proactive),
        metrics: obs.exported_registry().map(MetricsRegistry::snapshot),
        events: obs.recorder().map(FlightRecorder::events),
        run: out.run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_obs::StateCell;

    fn stayaway_plan(idx: usize, seed: u64, scenario: Scenario) -> CellPlan {
        CellPlan::new(idx, seed, scenario, PolicySpec::StayAway)
    }

    #[test]
    fn sensitive_key_names_what_the_cell_senses() {
        let plan = stayaway_plan(0, 7, Scenario::vlc_with_cpubomb(7));
        assert_eq!(plan.sensitive_key(), "vlc");
        assert_eq!(plan.seed, derive_cell_seed(7, 0));
        let workload = plan.clone().with_source(SourceSpec::Workload {
            scenario: "cpu-bomb".into(),
        });
        assert_eq!(workload.sensitive_key(), "kv-front");
        let trace = plan.with_source(SourceSpec::Trace {
            path: "t.jsonl".into(),
        });
        assert_eq!(trace.sensitive_key(), "trace:t.jsonl");
    }

    /// The plan of a bare stay-away run over `source` at `seed`; tests
    /// override the extras with struct-update syntax.
    fn host_run<'a>(
        seed: u64,
        source: &'a SourceSpec,
        scenario: &'a Scenario,
        controller: &'a ControllerConfig,
        obs: &'a Observability,
    ) -> HostRun<'a> {
        HostRun {
            source,
            scenario,
            seed,
            policy: &PolicySpec::StayAway,
            controller,
            ticks: 60,
            obs,
            import: None,
            export_as: None,
            trace_out: None,
            loop_nanos: None,
        }
    }

    #[test]
    fn trace_tee_then_replay_reproduces_the_run() {
        // The `record` → `replay` path: tee a live run into a trace file,
        // then drive a fresh controller from that file.
        let path = std::env::temp_dir().join(format!("stayaway-tee-{}.jsonl", std::process::id()));
        let scenario = Scenario::vlc_with_cpubomb(3);
        let config = ControllerConfig::default();
        let mut file = std::fs::File::create(&path).unwrap();
        let live = run_host(HostRun {
            trace_out: Some(Box::new(&mut file)),
            ..host_run(
                3,
                &SourceSpec::Sim,
                &scenario,
                &config,
                &Observability::disabled(),
            )
        })
        .unwrap();
        let trace = SourceSpec::Trace {
            path: path.to_str().unwrap().to_string(),
        };
        let bare = Observability::disabled();
        let replayed = run_host(host_run(3, &trace, &scenario, &config, &bare)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(live.run.timeline.len(), 60);
        assert_eq!(live.run.qos, replayed.run.qos);
        assert_eq!(live.stats, replayed.stats);
        // The replay's host spec came from the trace header.
        assert_eq!(live.host, replayed.host);
        // Nothing was asked for beyond the run itself.
        assert!(live.template.is_none() && live.requests.is_none());
        assert!(!live.imported_template);
    }

    #[test]
    fn workload_runs_report_request_qos_and_instruments_observe_them() {
        let scenario = Scenario::vlc_with_cpubomb(7);
        let config = ControllerConfig::default();
        let source = SourceSpec::Workload {
            scenario: "cpu-bomb".into(),
        };
        let bare = run_host(host_run(
            7,
            &source,
            &scenario,
            &config,
            &Observability::disabled(),
        ))
        .unwrap();
        let qos = bare
            .requests
            .expect("the workload engine simulates requests");
        assert!(qos.requests > 0 && qos.completed > 0);
        assert!(qos.p50_ms <= qos.p95_ms && qos.p95_ms <= qos.p99_ms);
        // The policy was built against the workload scenario's own host.
        assert_eq!(
            bare.host,
            stayaway_workload::by_name("cpu-bomb").unwrap().host
        );

        let observed = Observability::enabled(MetricsRegistry::new())
            .with_recorder(FlightRecorder::for_scope(0, "run"))
            .with_state(StateCell::new());
        let seen = run_host(host_run(7, &source, &scenario, &config, &observed)).unwrap();
        // Decision-inert, and every instrument saw the run.
        assert_eq!((&bare.run, &bare.stats), (&seen.run, &seen.stats));
        assert!(!observed.exported_registry().unwrap().snapshot().is_empty());
        assert!(!observed.recorder().unwrap().events().is_empty());
        assert!(observed.state().unwrap().get().get("tick").is_some());
    }

    #[test]
    fn a_baseline_host_reports_the_events_its_recorder_dropped() {
        // A null policy records nothing, but the workload source it shares
        // the recorder with records every SLO violation; a ring of 8 drops
        // most of them, and the host must say so under any policy.
        let scenario = Scenario::vlc_with_cpubomb(7);
        let config = ControllerConfig::default();
        let source = SourceSpec::Workload {
            scenario: "cpu-bomb".into(),
        };
        for policy in [PolicySpec::Null, PolicySpec::StayAway] {
            let recorder = FlightRecorder::bounded(0, "run", 8);
            let obs = Observability::disabled().with_recorder(recorder.clone());
            let out = run_host(HostRun {
                policy: &policy,
                ..host_run(7, &source, &scenario, &config, &obs)
            })
            .unwrap();
            assert!(
                recorder.dropped() > 0,
                "{}: the ring overflowed",
                policy.name()
            );
            assert_eq!(
                out.stats.events_dropped,
                recorder.dropped(),
                "{}",
                policy.name()
            );
        }
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
        assert!(out.stats.throttles > 0);
        assert!(!out.first_throttle_proactive);
    }

    #[test]
    fn a_workload_cell_is_named_after_the_scenario_it_ran() {
        let plan = CellPlan::new(0, 7, Scenario::vlc_with_cpubomb(7), PolicySpec::Null)
            .with_source(SourceSpec::Workload {
                scenario: "cpu-bomb".into(),
            });
        let out = run_cell(&plan, &ControllerConfig::default(), None, 5).unwrap();
        assert_eq!(out.scenario, "workload:cpu-bomb");
    }

    #[test]
    fn first_throttle_is_the_first_pause_however_many_decisions_follow() {
        // The storm violates almost every tick, so the controller makes
        // more decisions (> 4096) than a bounded ring of them would retain.
        // The reported first throttle must be the run's first actuation,
        // not the oldest throttle some ring still holds at the end.
        let seed = derive_cell_seed(7, 0);
        let scenario = Scenario::vlc_with_cpubomb(7);
        let config = ControllerConfig {
            seed,
            ..ControllerConfig::default()
        };
        let source = SourceSpec::Workload {
            scenario: "multi-tenant-storm".into(),
        };
        let bare = Observability::disabled();
        let out = run_host(HostRun {
            ticks: 4_500,
            ..host_run(seed, &source, &scenario, &config, &bare)
        })
        .unwrap();
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
        assert_eq!(
            out.first_throttle.map(|(tick, _)| tick),
            Some(first_pause.tick)
        );
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
        let plan = CellPlan::new(0, 13, Scenario::vlc_with_cpubomb(13), PolicySpec::Reactive);
        let out = run_cell(&plan, &ControllerConfig::default(), None, 150).unwrap();
        assert_eq!(out.policy, "reactive");
        assert!(out.template.is_none());
        assert_eq!(out.stats, ControllerStats::default());
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
