//! The deterministic cluster epoch loop.
//!
//! A [`Cluster`] advances all hosts in lockstep epochs. Everything that
//! couples hosts — snapshots, the cluster policy's decision, placement
//! actuation, arrival routing, departures — happens *serially* at the
//! epoch boundary in fixed host/job order; between boundaries each host's
//! event engine advances alone, and only that embarrassingly parallel
//! part runs on the worker pool. Combined with placement-independent job
//! streams ([`crate::cluster::job`]), the run is bit-identical for any
//! worker count, migrations included. A host opens, records and folds into
//! its rollup as a `workload:` fleet cell does ([`crate::cell`]).

use crate::aggregate::Tally;
use crate::cell::{host_observability, open_host, OpenHost};
use crate::cluster::action::ClusterAction;
use crate::cluster::job::JobState;
use crate::cluster::outcome::{ClusterOutcome, HostRollup, JobRollup};
use crate::cluster::policy::{ClusterPolicySpec, HostSnapshot, JobView};
use crate::cluster::scenario::ClusterScenario;
use crate::policy::PolicySpec;
use crate::pool::map_indexed;
use crate::registry::TemplateRegistry;
use crate::seed::derive_cell_seed;
use crate::source::workload_source;
use crate::FleetError;
use stayaway_core::ControllerConfig;
use stayaway_obs::{attr, merge_streams, AttrValue, EventId, EventKind, FlightRecorder, Layer};
use stayaway_telemetry::{step, RunOutcome, TelemetryError};
use stayaway_workload::{WorkloadError, WorkloadHost};
use std::sync::Arc;

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The cluster scenario (hosts + movable jobs).
    pub scenario: ClusterScenario,
    /// Epochs to run.
    pub epochs: u64,
    /// Control ticks per epoch (the placement cadence).
    pub ticks_per_epoch: u64,
    /// Worker threads advancing host engines between barriers. Never
    /// affects results.
    pub workers: usize,
    /// The cluster seed; host and job seeds derive from it.
    pub(crate) seed: u64,
    /// The cluster scheduling plane.
    pub cluster_policy: ClusterPolicySpec,
    /// The per-host control plane.
    pub host_policy: PolicySpec,
    /// Whether the migration verb is enabled (the runner drops
    /// `ClusterAction::Migrate` as invalid when off).
    pub migration: bool,
    /// When true, every host records into its own registry and the
    /// outcome carries the merged stable view. Decision-inert.
    pub collect_metrics: bool,
    /// When true, every host (and the cluster plane itself) records
    /// typed flight-recorder events and the outcome carries their
    /// canonical merged stream. Decision-inert and worker-count
    /// independent.
    pub collect_events: bool,
    /// Controller configuration for Stay-Away host policies (each host
    /// overrides the seed with its derived one).
    pub controller: ControllerConfig,
}

impl ClusterConfig {
    /// Builds a default configuration: 24 epochs × 8 ticks, 4 workers,
    /// scoring placement with migration above per-host Stay-Away.
    pub fn new(scenario: ClusterScenario, seed: u64) -> Self {
        ClusterConfig {
            scenario,
            epochs: 24,
            ticks_per_epoch: 8,
            workers: 4,
            seed,
            cluster_policy: ClusterPolicySpec::Score,
            host_policy: PolicySpec::StayAway,
            migration: true,
            collect_metrics: false,
            collect_events: false,
            controller: ControllerConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for zero epochs/ticks/workers,
    /// an invalid scenario or host policy, or a run too long for the
    /// nanosecond clock.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        let invalid = |reason: &str| FleetError::InvalidConfig {
            reason: reason.into(),
        };
        if self.epochs == 0 {
            return Err(invalid("cluster epochs must be positive"));
        }
        if self.ticks_per_epoch == 0 {
            return Err(invalid("ticks per epoch must be positive"));
        }
        if self.workers == 0 {
            return Err(invalid("cluster workers must be positive"));
        }
        self.scenario.validate()?;
        self.epochs
            .checked_mul(self.ticks_per_epoch)
            .and_then(|ticks| ticks.checked_mul(self.scenario.tick_period_ns()))
            .map(drop)
            .ok_or_else(|| invalid("cluster run length overflows the nanosecond clock"))
    }
}

/// One open host — the [`WorkloadHost`] + policy a `workload:` fleet cell
/// opens — kept open across epochs so the cluster verbs reach the engine,
/// `open.source`, between them. Its ticks fold into two [`RunOutcome`]s
/// through [`RunOutcome::fold`], as a fleet cell's do, and neither keeps a
/// timeline.
struct HostCell {
    idx: usize,
    open: OpenHost<WorkloadHost>,
    sensitive_key: String,
    seed: u64,
    /// The whole run's ticks.
    run: RunOutcome,
    /// The last epoch's ticks, read by the epoch-boundary snapshot.
    epoch: RunOutcome,
    /// Source failure of the last epoch advance, parked so the parallel
    /// section returns (and allocates) nothing; surfaced at the barrier.
    failure: Option<TelemetryError>,
}

impl HostCell {
    /// Advances the local closed loop by up to `ticks` periods of
    /// [`stayaway_telemetry::step`] — the loop every fleet cell runs —
    /// folding each record into the run and a fresh epoch.
    fn advance_epoch(&mut self, ticks: u64) -> Result<(), TelemetryError> {
        self.epoch = RunOutcome::default();
        for _ in 0..ticks {
            let Some((record, rejected)) = step(&mut self.open.source, self.open.policy.as_mut())?
            else {
                break;
            };
            self.run.fold(&record, rejected);
            self.epoch.fold(&record, rejected);
        }
        Ok(())
    }

    /// The host's epoch-boundary view for the cluster policy.
    fn snapshot(&self, placed_jobs: Vec<usize>, registry: &TemplateRegistry) -> HostSnapshot {
        let host = &self.open.source;
        HostSnapshot {
            idx: self.idx,
            name: host.scenario().name.clone(),
            spec: host.scenario().host,
            load: host.load(),
            mean_cpu: self.epoch.mean_cpu(),
            epoch_qos: self.epoch.qos,
            frozen_jobs: host.frozen_batch(),
            placed_jobs,
            template_violations: registry
                .lookup(&self.sensitive_key)
                .map(|e| e.template.violation_count() as u64),
        }
    }
}

/// The cluster plane's own counters, kept at the epoch barrier, and the
/// recorder its verbs write to when the run collects events.
#[derive(Default)]
struct Scheduling {
    recorder: Option<FlightRecorder>,
    admissions: u64,
    migrations: u64,
    deferrals: u64,
    queue_actions: u64,
    invalid_actions: u64,
    max_queue_depth: u64,
    queue_depth_sum: u64,
}

impl Scheduling {
    /// One verb applied at `tick`: its counter and, only when the run
    /// collects events, its event for the job it moved — `attrs` is built
    /// then and only then.
    fn applied(
        &mut self,
        action: ClusterAction,
        tick: u64,
        cause: Option<EventId>,
        attrs: impl FnOnce() -> Vec<(String, AttrValue)>,
    ) {
        let (kind, count) = match action {
            ClusterAction::Admit { .. } => (EventKind::Admit, &mut self.admissions),
            ClusterAction::Queue { .. } => (EventKind::Queue, &mut self.queue_actions),
            ClusterAction::Defer { .. } => (EventKind::Defer, &mut self.deferrals),
            ClusterAction::Migrate { .. } => (EventKind::Migrate, &mut self.migrations),
        };
        *count += 1;
        if let Some(rec) = &self.recorder {
            let subject = format!("job:{}", action.job());
            rec.record_for(tick, Layer::Cluster, kind, subject, cause, attrs());
        }
    }
}

/// Applies `verb` to host `h`'s workload engine, locating its error at
/// that host.
fn on_host<T>(
    cells: &mut [HostCell],
    h: usize,
    verb: impl FnOnce(&mut WorkloadHost) -> Result<T, WorkloadError>,
) -> Result<T, FleetError> {
    verb(&mut cells[h].open.source).map_err(FleetError::at("host", h))
}

/// A cluster of open hosts under one scheduling policy.
pub struct Cluster {
    config: ClusterConfig,
    registry: Arc<TemplateRegistry>,
}

impl Cluster {
    /// Builds a cluster with a fresh (empty) template registry.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ClusterConfig) -> Result<Self, FleetError> {
        Self::with_registry(config, Arc::new(TemplateRegistry::new()))
    }

    /// Like [`Cluster::new`] but starting from an existing registry, so
    /// host controllers warm-start from templates captured earlier (and
    /// the score policy sees their violation history from epoch 0).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub(crate) fn with_registry(
        config: ClusterConfig,
        registry: Arc<TemplateRegistry>,
    ) -> Result<Self, FleetError> {
        config.validate()?;
        Ok(Cluster { config, registry })
    }

    fn build_cell(&self, idx: usize) -> Result<HostCell, FleetError> {
        let config = &self.config;
        let scenario = &config.scenario.hosts[idx];
        let seed = derive_cell_seed(config.seed, idx as u64);
        let Some(tenant) = scenario.sensitive_tenant() else {
            let reason = format!("{} has no sensitive tenant", scenario.name);
            return Err(FleetError::InvalidConfig { reason });
        };
        let sensitive_key = tenant.name.clone();
        let obs = host_observability("host", idx, config.collect_metrics, config.collect_events);
        let source = workload_source(scenario.clone(), seed, &obs)?;
        let controller = ControllerConfig {
            seed,
            ..config.controller.clone()
        };
        let import = self.registry.lookup(&sensitive_key).map(|e| e.template);
        let open = open_host(
            source,
            &scenario.host,
            &config.host_policy,
            &controller,
            &obs,
            import.as_ref(),
        )?;
        Ok(HostCell {
            idx,
            open,
            sensitive_key,
            seed,
            run: RunOutcome::default(),
            epoch: RunOutcome::default(),
            failure: None,
        })
    }

    /// Runs the cluster to completion.
    ///
    /// # Errors
    ///
    /// Propagates host construction, controller and engine failures.
    pub fn run(self) -> Result<ClusterOutcome, FleetError> {
        let config = &self.config;
        let tick_ns = config.scenario.tick_period_ns();
        let epoch_ns = config.ticks_per_epoch * tick_ns;
        let mut cells: Vec<HostCell> = (0..config.scenario.hosts.len())
            .map(|idx| self.build_cell(idx).map_err(FleetError::at("host", idx)))
            .collect::<Result<_, _>>()?;
        let mut jobs: Vec<JobState> = config
            .scenario
            .jobs
            .iter()
            .enumerate()
            .map(|(id, spec)| JobState::new(id, spec.clone(), config.seed, tick_ns))
            .collect();
        let mut cluster_policy = config.cluster_policy.build(config.seed, config.migration);
        // The cluster plane records under its own scope, one past the
        // host indices; verbs are recorded only in the serial barrier,
        // so the stream is worker-count independent by construction.
        let mut sched = Scheduling {
            recorder: config
                .collect_events
                .then(|| FlightRecorder::for_scope(cells.len() as u32, "cluster")),
            ..Scheduling::default()
        };

        for epoch in 0..config.epochs {
            let start_ns = epoch * epoch_ns;
            let start_tick = epoch * config.ticks_per_epoch;

            // 1. Submissions reach the admission queue.
            for job in &mut jobs {
                if !job.arrived && job.spec.submit_tick <= start_tick {
                    job.arrived = true;
                }
            }

            // 2. Serial barrier: snapshots in host order, views in job
            //    order, one policy decision.
            let snapshots: Vec<HostSnapshot> = cells
                .iter()
                .map(|cell| {
                    let placed = jobs
                        .iter()
                        .filter(|j| j.placement.is_some_and(|(h, _)| h == cell.idx) && !j.departed)
                        .map(|j| j.id)
                        .collect();
                    cell.snapshot(placed, &self.registry)
                })
                .collect();
            let views: Vec<JobView> = jobs
                .iter()
                .filter(|j| j.arrived && !j.departed)
                .map(|j| JobView {
                    id: j.id,
                    name: j.spec.name.clone(),
                    placement: j.placement.map(|(h, _)| h),
                    pending: match j.placement {
                        Some((h, ti)) => cells[h].open.source.tenant_pending(ti),
                        None => j.carried.len() as u64,
                    },
                    queued_epochs: j.queued_epochs,
                    last_move_epoch: j.last_move_epoch,
                    migrations: j.migrations,
                    stream_done: j.stream_done(),
                    est: JobView::estimate(&j.spec),
                })
                .collect();
            let actions = cluster_policy.decide(epoch, &views, &snapshots);

            // 3. Actuate in the policy's order; invalid verbs are counted
            //    and dropped, never applied.
            for action in actions {
                let job_id = action.job();
                let live = jobs.get(job_id).is_some_and(|j| j.arrived && !j.departed);
                if !live {
                    sched.invalid_actions += 1;
                    continue;
                }
                match action {
                    ClusterAction::Admit { job, host } => {
                        if jobs[job].placement.is_some() || host >= cells.len() {
                            sched.invalid_actions += 1;
                            continue;
                        }
                        let tenant = jobs[job].spec.tenant.clone();
                        let ti = on_host(&mut cells, host, |e| e.attach_tenant(tenant))?;
                        jobs[job].placement = Some((host, ti));
                        jobs[job].placements.push(host);
                        jobs[job].last_move_epoch = epoch;
                        sched.applied(action, start_tick, None, || {
                            vec![attr("host", host as u64), attr("epoch", epoch)]
                        });
                    }
                    ClusterAction::Queue { job } => {
                        if jobs[job].placement.is_some() {
                            sched.invalid_actions += 1;
                        } else {
                            sched.applied(action, start_tick, None, || {
                                vec![attr("queued_epochs", jobs[job].queued_epochs)]
                            });
                        }
                    }
                    ClusterAction::Defer { job } => {
                        if jobs[job].placement.is_some() {
                            sched.invalid_actions += 1;
                        } else {
                            sched.applied(action, start_tick, None, || vec![attr("epoch", epoch)]);
                        }
                    }
                    ClusterAction::Migrate { job, from, to } => {
                        let ti = match jobs[job].placement {
                            Some((h, ti))
                                if config.migration
                                    && h == from
                                    && to != from
                                    && to < cells.len() =>
                            {
                                ti
                            }
                            _ => {
                                sched.invalid_actions += 1;
                                continue;
                            }
                        };
                        jobs[job].carry(on_host(&mut cells, from, |e| e.detach_tenant(ti))?);
                        let tenant = jobs[job].spec.tenant.clone();
                        let ti = on_host(&mut cells, to, |e| e.attach_tenant(tenant))?;
                        jobs[job].placement = Some((to, ti));
                        jobs[job].placements.push(to);
                        jobs[job].last_move_epoch = epoch;
                        jobs[job].migrations += 1;
                        // Causal link across layers: the migration is the
                        // cluster's answer to interference on the source
                        // host, so it names that host's most recent
                        // workload-layer SLO violation (none without
                        // recorders).
                        let cause = cells[from]
                            .open
                            .obs
                            .recorder()
                            .and_then(|r| r.last_id_of_kind(EventKind::SloViolation));
                        sched.applied(action, start_tick, cause, || {
                            vec![attr("from", from as u64), attr("to", to as u64)]
                        });
                    }
                }
            }

            // 4. Admission-queue depth accounting.
            let depth = jobs
                .iter_mut()
                .filter(|j| j.arrived && !j.departed && j.placement.is_none())
                .map(|j| j.queued_epochs += 1)
                .count() as u64;
            sched.max_queue_depth = sched.max_queue_depth.max(depth);
            sched.queue_depth_sum += depth;

            // 5. Route this epoch's arrivals in job-id order. Generation
            //    happens for every live job — placed or not — so the
            //    streams are a pure function of the epoch grid.
            for job in &mut jobs {
                if !job.arrived || job.departed {
                    continue;
                }
                let due = job.arrivals_before(start_ns + epoch_ns);
                match job.placement {
                    Some((h, ti)) => {
                        for (t, nominal) in job.carried.drain(..).chain(due) {
                            // Past arrival times (carried backlog) are
                            // clamped to the host's current tick boundary.
                            on_host(&mut cells, h, |e| e.inject_arrival(ti, t, nominal))?;
                        }
                    }
                    None => job.carry(due),
                }
            }

            // 6. Parallel section: each host advances alone.
            let ticks = config.ticks_per_epoch;
            map_indexed(&mut cells, config.workers, |cell| {
                cell.failure = cell.advance_epoch(ticks).err();
            });
            for cell in &mut cells {
                if let Some(e) = cell.failure.take() {
                    return Err(FleetError::at("host", cell.idx)(e));
                }
            }

            // 7. Departures, in job-id order at the epoch's end.
            for job in &mut jobs {
                if !job.arrived || job.departed || !job.stream_done() || !job.carried.is_empty() {
                    continue;
                }
                match job.placement {
                    Some((h, ti)) => {
                        if cells[h].open.source.tenant_pending(ti) == 0 {
                            on_host(&mut cells, h, |e| e.detach_tenant(ti))?;
                            job.placement = None;
                            job.departed = true;
                        }
                    }
                    None => job.departed = true,
                }
            }
        }

        // Publish learned templates in host order (order-independent
        // conflict resolution lives in the registry, but fixed order keeps
        // the walk deterministic anyway).
        for cell in &cells {
            let exported = cell.open.policy.export_template(&cell.sensitive_key);
            if let Some(template) = exported.map_err(FleetError::at("host", cell.idx))? {
                self.registry.publish(template, cell.idx);
            }
        }

        Ok(self.aggregate(cells, jobs, sched))
    }

    fn aggregate(
        &self,
        mut cells: Vec<HostCell>,
        jobs: Vec<JobState>,
        sched: Scheduling,
    ) -> ClusterOutcome {
        let config = &self.config;
        let mut cluster = Tally::default();
        let mut slo_met = 0u64;
        let mut slo_total = 0u64;
        let mut metrics: Option<stayaway_obs::MetricsSnapshot> = None;
        let mut metric_unit_mismatches = 0u64;
        let per_host: Vec<HostRollup> = cells
            .iter_mut()
            .map(|cell| {
                let host = &cell.open.source;
                let totals = host.totals();
                slo_met += totals.sensitive_met;
                slo_total += totals.sensitive_completed + totals.sensitive_dropped;
                let cpu_cores = host.scenario().host.cpu_cores;
                cell.run.batch_work = host.batch_work();
                let stats = cell.open.stats();
                cluster.add(&cell.run, cpu_cores, &stats);
                if let Some(r) = cell.open.obs.exported_registry() {
                    metric_unit_mismatches += metrics
                        .get_or_insert_with(stayaway_obs::MetricsSnapshot::default)
                        .merge(&r.snapshot());
                }
                HostRollup {
                    host: cell.idx,
                    name: host.scenario().name.clone(),
                    sensitive: cell.sensitive_key.clone(),
                    seed: cell.seed,
                    qos: cell.run.qos,
                    slo_violation_rate: totals.slo_violation_rate(),
                    arrivals: totals.arrivals,
                    completed: totals.completed,
                    dropped: totals.dropped,
                    mean_utilization: cell.run.mean_utilization(),
                    gained_utilization: cell.run.mean_gained_utilization(cpu_cores),
                    batch_work: cell.run.batch_work,
                    throttles: stats.throttles,
                    resumes: stats.resumes,
                    events_dropped: stats.events_dropped,
                    prediction_checks: stats.prediction_checks,
                    prediction_hits: stats.prediction_hits,
                    samples_rejected: stats.samples_rejected,
                    rejected_actions: cell.run.rejected_actions,
                    imported_template: cell.open.imported_template,
                    jobs_hosted: jobs
                        .iter()
                        .filter(|j| j.placements.contains(&cell.idx))
                        .map(|j| j.id)
                        .collect(),
                    timeline_digest: host.timeline_digest(),
                }
            })
            .collect();
        let per_job: Vec<JobRollup> = jobs
            .iter()
            .map(|j| JobRollup {
                job: j.id,
                name: j.spec.name.clone(),
                generated: j.generated,
                arrival_digest: j.digest,
                dropped_unplaced: j.dropped_unplaced,
                placements: j.placements.clone(),
                migrations: j.migrations,
                queued_epochs: j.queued_epochs,
                arrived: j.arrived,
                departed: j.departed,
            })
            .collect();
        ClusterOutcome {
            scenario: config.scenario.name.clone(),
            cluster_policy: config.cluster_policy.name().to_string(),
            host_policy: config.host_policy.name().to_string(),
            seed: config.seed,
            epochs: config.epochs,
            ticks_per_epoch: config.ticks_per_epoch,
            migration: config.migration,
            qos: cluster.qos,
            slo_violation_rate: if slo_total == 0 {
                0.0
            } else {
                1.0 - slo_met as f64 / slo_total as f64
            },
            total_batch_work: cluster.batch_work,
            mean_utilization: cluster.mean_utilization(),
            mean_gained_utilization: cluster.mean_gained_utilization(),
            throttles: cluster.throttles,
            resumes: cluster.resumes,
            events_dropped: cluster.events_dropped,
            prediction_checks: cluster.prediction_checks,
            prediction_hits: cluster.prediction_hits,
            samples_rejected: cluster.samples_rejected,
            admissions: sched.admissions,
            migrations: sched.migrations,
            deferrals: sched.deferrals,
            queue_actions: sched.queue_actions,
            invalid_actions: sched.invalid_actions,
            max_queue_depth: sched.max_queue_depth,
            mean_queue_depth: sched.queue_depth_sum as f64 / config.epochs.max(1) as f64,
            jobs_unfinished: jobs.iter().filter(|j| !j.departed).count(),
            per_host,
            per_job,
            metrics: metrics.map(|m| m.stable_view()),
            metric_unit_mismatches,
            events: sched.recorder.map(|cluster_rec| {
                let streams = cells
                    .iter()
                    .filter_map(|cell| cell.open.obs.recorder().map(FlightRecorder::events))
                    .chain(std::iter::once(cluster_rec.events()));
                merge_streams(streams)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::scenario::cluster_by_name;

    fn config(name: &str, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(cluster_by_name(name).unwrap(), seed);
        c.epochs = 10;
        c.ticks_per_epoch = 4;
        c
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = config("hotspot", 7);
        c.epochs = 0;
        assert!(Cluster::new(c).is_err());
        let mut c = config("hotspot", 7);
        c.ticks_per_epoch = 0;
        assert!(Cluster::new(c).is_err());
        let mut c = config("hotspot", 7);
        c.workers = 0;
        assert!(Cluster::new(c).is_err());
        assert!(Cluster::new(config("hotspot", 7)).is_ok());
    }

    #[test]
    fn a_short_run_admits_jobs_and_reports_rollups() {
        // 16 epochs: enough for the last job (submitted at tick 32) to
        // clear the score policy's bounded defer window.
        let mut c = config("hotspot", 7);
        c.epochs = 16;
        let out = Cluster::new(c).unwrap().run().unwrap();
        assert_eq!(out.scenario, "hotspot");
        assert_eq!(out.per_host.len(), 3);
        assert_eq!(out.per_job.len(), 4);
        assert!(out.admissions >= 4, "all jobs should be placed eventually");
        assert!(out.total_batch_work > 0.0);
        assert!(out.qos.active_ticks > 0);
        for job in &out.per_job {
            assert!(job.arrived);
            assert!(job.generated > 0);
        }
        // The worker count is not part of the document.
        assert!(!out.to_json().unwrap().contains("workers"));
    }

    #[test]
    fn a_job_that_never_arrives_leaves_the_run_untouched() {
        // `submit_tick = u64::MAX` passes validation; its clock arithmetic
        // must saturate rather than overflow (a debug panic, or a release
        // wrap-around to an early arrival).
        let mut c = config("hotspot", 7);
        c.scenario.jobs[0].submit_tick = u64::MAX;
        c.scenario.jobs[1].duration_ticks = u64::MAX;
        let out = Cluster::new(c).unwrap().run().unwrap();
        let never = &out.per_job[0];
        assert!(!never.arrived && !never.departed);
        assert_eq!(never.generated, 0);
        assert!(never.placements.is_empty());
        // A job that never ends still arrives and streams.
        assert!(out.per_job[1].arrived && out.per_job[1].generated > 0);
    }

    #[test]
    fn throttle_only_round_robin_never_migrates() {
        let mut c = config("hotspot", 7);
        c.cluster_policy = ClusterPolicySpec::NoPlacement;
        let out = Cluster::new(c).unwrap().run().unwrap();
        assert_eq!(out.migrations, 0);
        for job in &out.per_job {
            assert_eq!(job.placements, vec![job.job % 3]);
        }
    }

    #[test]
    fn metrics_collection_is_decision_inert() {
        let bare = Cluster::new(config("hotspot", 9)).unwrap().run().unwrap();
        let mut c = config("hotspot", 9);
        c.collect_metrics = true;
        let observed = Cluster::new(c).unwrap().run().unwrap();
        assert!(bare.metrics.is_none());
        assert!(observed.metrics.is_some());
        let strip = |mut o: ClusterOutcome| {
            o.metrics = None;
            o
        };
        assert_eq!(strip(bare), strip(observed));
    }

    #[test]
    fn learned_templates_are_published_for_warm_starts() {
        let cluster = Cluster::new(config("hotspot", 11)).unwrap();
        let registry = Arc::clone(&cluster.registry);
        cluster.run().unwrap();
        assert!(!registry.is_empty(), "stay-away hosts publish templates");
    }
}
