//! `cluster-scale`: many hosts × many jobs through `Cluster::run` in short
//! epochs. The `workload` request engine does most of the work and `sim`
//! none; 2-tick epochs put the per-epoch barrier/spawn and placement
//! scoring under the most pressure they see anywhere.

use super::{closed_loop, controller_config, PassOutcome, Probe, Size, Stretch, Trace, Workload};
use crate::clock::Laps;
use crate::layers::Layers;
use crate::spec::WORKERS;
use stay_away::core::Controller;
use stay_away::fleet::{
    cluster_by_name, Cluster, ClusterConfig, ClusterOutcome, ClusterPolicySpec, ClusterScenario,
};
use stay_away::workload::WorkloadSource;
use std::time::Instant;

/// Replicas of the `storm-cluster` host set (4 hosts each).
const HOST_REPLICAS: usize = 4;
/// Replicas of the `storm-cluster` job set (5 jobs each).
const JOB_REPLICAS: u64 = 8;
/// Jobs that may still be draining when the run ends: a tenth of the 40.
/// A host controller that ends the run throttled holds a job's last
/// requests past any horizon, so zero is not attainable on every seed.
const MAX_UNFINISHED_JOBS: usize = 4;
/// Epochs per run: the 40 jobs (80 to 128 ticks each) arrive over the
/// first 40 % of the 900 ticks and have drained by the end.
const EPOCHS: u64 = 450;
/// Control ticks per epoch: the shortest placement cadence that still
/// lets a host make progress between barriers.
const TICKS_PER_EPOCH: u64 = 2;

pub struct ClusterScale {
    seed: u64,
    epochs: u64,
    size: Size,
}

/// The `storm-cluster` host set ×4 and job set ×8 from the public
/// `ClusterScenario` / `JobSpec` fields.
fn scenario(horizon: u64) -> Result<ClusterScenario, String> {
    let base = cluster_by_name("storm-cluster").map_err(|e| e.to_string())?;
    let mut hosts = Vec::new();
    for replica in 0..HOST_REPLICAS {
        for host in &base.hosts {
            let mut host = host.clone();
            host.name = format!("{}-{replica}", host.name);
            hosts.push(host);
        }
    }
    // Each replica of the job set is submitted one stride later, all
    // within the first 40 % of the horizon: close enough together that
    // placements are contested (migrations and deferrals), early enough
    // that the jobs drain before the end.
    let stride = horizon * 2 / 5 / JOB_REPLICAS;
    let mut jobs = Vec::new();
    for replica in 0..JOB_REPLICAS {
        for job in &base.jobs {
            let mut job = job.clone();
            job.name = format!("{}-{replica}", job.name);
            job.tenant.name = job.name.clone();
            job.submit_tick += replica * stride;
            jobs.push(job);
        }
    }
    Ok(ClusterScenario {
        name: "storm-cluster-x4".into(),
        description: "storm-cluster host set x4, job set x8, submissions spread".into(),
        hosts,
        jobs,
    })
}

impl ClusterScale {
    pub fn new(seed: u64, size: Size) -> Self {
        ClusterScale {
            seed,
            epochs: size.pick(EPOCHS, EPOCHS, 40),
            size,
        }
    }

    fn ticks(&self) -> u64 {
        self.epochs * TICKS_PER_EPOCH
    }

    fn config(&self, seed: u64, workers: usize) -> Result<ClusterConfig, String> {
        let mut config = ClusterConfig::new(scenario(self.ticks())?, seed);
        config.epochs = self.epochs;
        config.ticks_per_epoch = TICKS_PER_EPOCH;
        config.workers = workers;
        config.cluster_policy = ClusterPolicySpec::Score;
        config.migration = true;
        config.controller = controller_config(seed);
        Ok(config)
    }

    fn run(
        &self,
        workers: usize,
        laps: &mut Laps,
        trace: Option<Trace<'_>>,
    ) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let seed = self.seed;
        let mut new_s = 0.0;
        let (cluster, hosts) = laps.setup(|| {
            let config = self.config(seed, workers)?;
            let hosts = config.scenario.hosts.clone();
            let clock = Instant::now();
            let cluster = Cluster::new(config).map_err(|e| e.to_string())?;
            new_s = clock.elapsed().as_secs_f64();
            Ok::<_, String>((cluster, hosts))
        })?;
        let clock = Instant::now();
        let outcome = laps.work(|| cluster.run()).map_err(|e| e.to_string())?;
        let wall = clock.elapsed().as_secs_f64();
        self.absorb(&mut out, hosts.len(), &outcome);
        let Some((tracer, layers)) = trace else {
            return Ok(out);
        };
        layers.set("fleet.cluster_new_s", new_s);
        layers.set("fleet.cluster_epoch_us", wall * 1e6 / self.epochs as f64);
        layers.set("fleet.cluster_admissions", outcome.admissions as f64);
        layers.set("fleet.cluster_migrations", outcome.migrations as f64);
        layers.set("fleet.cluster_deferrals", outcome.deferrals as f64);
        layers.set(
            "fleet.cluster_max_queue_depth",
            outcome.max_queue_depth as f64,
        );
        let stale: u64 = outcome.per_host.iter().map(|h| h.rejected_actions).sum();
        layers.set("fleet.cluster_stale_actions", stale as f64);

        // `Cluster::run` is sealed, so the request engine is clocked by
        // driving each distinct host scenario standalone (resident tenants
        // only) for the same tick count, outside the laps.
        for scenario in &hosts[..hosts.len() / HOST_REPLICAS] {
            let mut controller = Controller::for_host(controller_config(seed), &scenario.host)
                .map_err(|e| e.to_string())?;
            let source = WorkloadSource::new(scenario.clone(), seed).map_err(|e| e.to_string())?;
            let spans = Some((tracer, ("workload.next", Some("workload.apply"))));
            let run = Stretch::work(self.ticks(), self.ticks());
            let (mut unclocked, mut standalone) = (Laps::default(), PassOutcome::default());
            let source = closed_loop(
                source,
                &mut controller,
                run,
                &mut unclocked,
                spans,
                &mut standalone,
            )?;
            layers.add("workload.sim_requests", source.totals().arrivals as f64);
            layers.absorb_controller(&controller.stats(), &controller.metrics());
        }
        Ok(out)
    }

    fn absorb(&self, out: &mut PassOutcome, hosts: usize, cluster: &ClusterOutcome) {
        out.requested += hosts as u64 * self.ticks();
        out.completed += cluster.per_host.len() as u64 * cluster.epochs * cluster.ticks_per_epoch;
        // Not a fault: host `rejected_actions` here are a controller's
        // resumes for a job the cluster has since migrated away, which the
        // engine counts and ignores (`fleet.cluster_stale_actions`).
        out.faults += cluster.invalid_actions;
        out.pool_qos(&cluster.qos);
        out.batch_work += cluster.total_batch_work;
        let d = &mut out.digest;
        d.float(cluster.total_batch_work);
        d.float(cluster.slo_violation_rate);
        for word in [
            cluster.throttles,
            cluster.resumes,
            cluster.prediction_checks,
            cluster.prediction_hits,
            cluster.samples_rejected,
            cluster.admissions,
            cluster.migrations,
            cluster.deferrals,
            cluster.queue_actions,
            cluster.invalid_actions,
            cluster.max_queue_depth,
            cluster.jobs_unfinished as u64,
        ] {
            d.word(word);
        }
        for host in &cluster.per_host {
            for word in [
                host.timeline_digest,
                host.arrivals,
                host.completed,
                host.rejected_actions,
            ] {
                d.word(word);
            }
        }
        for job in &cluster.per_job {
            for word in [job.arrival_digest, job.generated, job.migrations] {
                d.word(word);
            }
        }
        let requests: u64 = cluster.per_host.iter().map(|h| h.arrivals).sum();
        out.count("epochs", self.epochs as f64);
        out.count("sim_requests", requests as f64);
        if cluster.invalid_actions != 0 {
            out.fail(format!(
                "{} invalid cluster actions",
                cluster.invalid_actions
            ));
        }
        if self.size.guarded() {
            if cluster.migrations == 0 || cluster.deferrals == 0 {
                out.fail(format!(
                    "{} migrations and {} deferrals — placement was never contested",
                    cluster.migrations, cluster.deferrals
                ));
            }
            // A host controller that ends the run throttled can hold one
            // job's last requests past the horizon; more than a tenth of
            // the jobs is a different run.
            if cluster.jobs_unfinished > MAX_UNFINISHED_JOBS {
                out.fail(format!(
                    "{} of {} jobs unfinished at the horizon",
                    cluster.jobs_unfinished,
                    cluster.per_job.len()
                ));
            }
        }
    }
}

impl Workload for ClusterScale {
    /// Timed at one worker: see [`WORKERS`].
    fn pass(&self, laps: &mut Laps, trace: Option<Trace<'_>>) -> Result<PassOutcome, String> {
        self.run(1, laps, trace)
    }

    fn probes(&self) -> &'static [Probe] {
        &["two-workers"]
    }

    fn probe(&self, _: usize, laps: &mut Laps) -> Result<PassOutcome, String> {
        self.run(WORKERS, laps, None)
    }

    fn relate(&self, one_worker_s: f64, probes_s: &[f64], layers: &mut Layers) {
        layers.set("fleet.cluster_w1_over_w2", one_worker_s / probes_s[0]);
    }
}
