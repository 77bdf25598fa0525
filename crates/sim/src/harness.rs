//! The experiment harness: closed loop of host, QoS accounting and policy.

use crate::host::{Host, HostTick};
use crate::qos::QOS_THRESHOLD;
use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_telemetry::{
    Action, AppClass, ContainerId, Observation, ObservationSource, Policy, ResourceKind,
    ResourceVector, RunOutcome, SourceKind, SourceMeta, TelemetryError, TickRecord,
};

/// Closed-loop experiment driver.
#[derive(Debug)]
pub struct Harness {
    host: Host,
    sensitive: Option<ContainerId>,
    noise: Noise,
    /// Physics report of the most recent tick, kept so the accounting
    /// record can be built after the policy acted (see
    /// [`ObservationSource::record_for`]), and refilled by the next tick.
    last_report: Option<HostTick>,
    /// The observation handed back through [`ObservationSource::recycle`],
    /// refilled by the next pull.
    spare: Option<Observation>,
}

/// Multiplicative Gaussian monitoring noise and its seeded stream.
#[derive(Debug)]
struct Noise {
    sd: f64,
    rng: StdRng,
}

impl Noise {
    /// `x` perturbed by a Box–Muller draw at standard deviation `sd`;
    /// zero, negative and noiseless readings draw nothing.
    fn scalar(&mut self, x: f64, sd: f64) -> f64 {
        if sd == 0.0 || x <= 0.0 {
            return x;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (x * (1.0 + sd * z)).max(0.0)
    }

    /// Every positive metric of `v` through [`Noise::scalar`] at the
    /// harness's standard deviation, in [`ResourceKind::ALL`] order.
    fn vector(&mut self, mut v: ResourceVector) -> ResourceVector {
        for kind in ResourceKind::ALL {
            let x = v.get(kind);
            if x > 0.0 {
                v.set(kind, self.scalar(x, self.sd));
            }
        }
        v
    }
}

impl Harness {
    /// Wraps a host. The QoS of the *first sensitive container* is tracked
    /// against [`QOS_THRESHOLD`]; monitoring noise is multiplicative
    /// Gaussian with standard deviation `noise_sd` (0.0 disables it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a negative or non-finite
    /// `noise_sd`.
    pub fn new(host: Host, noise_sd: f64, seed: u64) -> Result<Self, SimError> {
        if !noise_sd.is_finite() || noise_sd < 0.0 {
            return Err(SimError::InvalidConfig {
                reason: format!("noise_sd must be non-negative, got {noise_sd}"),
            });
        }
        let sensitive = host
            .containers()
            .find(|c| c.class() == AppClass::Sensitive)
            .map(|c| c.id());
        Ok(Harness {
            host,
            sensitive,
            noise: Noise {
                sd: noise_sd,
                rng: StdRng::seed_from_u64(seed ^ 0x5f3759df),
            },
            last_report: None,
            spare: None,
        })
    }

    /// Re-seeds the monitoring-noise RNG, replaying the same derivation as
    /// [`Harness::new`]. A fleet runner uses this to inject a per-cell seed
    /// (derived from a fleet seed and cell index) into a harness built from
    /// a shared [`crate::scenario::Scenario`] prototype, without
    /// copy-pasting scenario construction. The host physics are untouched:
    /// only the observation noise stream changes.
    pub fn reseed(&mut self, seed: u64) {
        self.noise.rng = StdRng::seed_from_u64(seed ^ 0x5f3759df);
    }

    /// Shared access to the host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Applies policy actions to the host (they take effect from the next
    /// tick), returning how many were rejected — the "act" half of a
    /// closed-loop step.
    pub fn apply(&mut self, actions: &[Action]) -> u64 {
        let mut rejected = 0;
        for a in actions {
            let result = match a {
                Action::Pause(id) => self.host.pause(*id),
                Action::Resume(id) => self.host.resume(*id),
            };
            if result.is_err() {
                rejected += 1;
            }
        }
        rejected
    }

    /// Total nominal batch work completed so far.
    pub fn batch_work(&self) -> f64 {
        self.host
            .containers()
            .filter(|c| c.class() == AppClass::Batch)
            .map(|c| c.app().work_done())
            .sum()
    }

    /// Runs `ticks` closed-loop ticks under `policy`:
    /// [`stayaway_telemetry::drive`] over the harness itself.
    pub fn run(&mut self, policy: &mut dyn Policy, ticks: u64) -> RunOutcome {
        stayaway_telemetry::drive(self, policy, ticks).expect("the simulator source never fails")
    }
}

/// The simulator substrate is the [`Harness`] itself: one host step and
/// its (noisy) observation per pull, actions applied to the host, and
/// accounting records taken from the harness's noiseless physics rather
/// than from the noisy observation. [`Harness::run`] is
/// `stayaway_telemetry::drive` over this impl, so there is no second
/// simulator loop for it to agree with.
impl ObservationSource for Harness {
    fn meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Sim,
            metrics: ResourceKind::ALL.to_vec(),
            tick_period_secs: 1.0,
            host: Some(*self.host.spec()),
        }
    }

    /// Steps the host and fills the recycled observation (or a fresh one),
    /// overwriting every field and reusing its container entries and their
    /// name strings. The physics report is kept for
    /// [`ObservationSource::record_for`].
    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let mut out = self.spare.take().unwrap_or_default();
        let report = self.last_report.get_or_insert_with(HostTick::default);
        self.host.step_into(report);
        let (qos_value, violation, _active) = qos_of(self.sensitive, report);
        out.tick = report.tick;
        out.qos_violation = violation;
        out.qos_value = qos_value;
        let slots = out.resize_containers(report.containers.len());
        for (c, ct) in slots.iter_mut().zip(&report.containers) {
            let container = self.host.container(ct.id).ok();
            c.id = ct.id;
            c.name.clear();
            c.name.push_str(container.map_or("", |c| c.app_name()));
            c.class = ct.class;
            c.active = ct.active;
            c.paused = ct.paused;
            c.finished = ct.finished;
            c.priority = container.map_or(0, |c| c.priority());
            // Noise is drawn per container, usage then ipc. Hardware
            // counters are a blurrier progress signal than the
            // application's own QoS metric: triple the monitoring noise.
            c.usage = self.noise.vector(ct.usage);
            c.ipc = self.noise.scalar(ct.perf, 3.0 * self.noise.sd);
        }
        Ok(Some(out))
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        Ok(Harness::apply(self, actions))
    }

    /// The ground-truth record of the most recent tick (noiseless physics,
    /// unlike the observation); derived from the observation before the
    /// first tick.
    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        let Some(report) = &self.last_report else {
            return stayaway_telemetry::derive_record(
                observation,
                actions.len(),
                Some(self.host.spec()),
            );
        };
        let (qos_value, violated, sensitive_active) = qos_of(self.sensitive, report);
        TickRecord {
            tick: report.tick,
            qos_value,
            violated,
            sensitive_active,
            batch_active: report
                .containers
                .iter()
                .filter(|c| c.class == AppClass::Batch && c.active)
                .count(),
            batch_paused: report
                .containers
                .iter()
                .filter(|c| c.class == AppClass::Batch && c.paused)
                .count(),
            sensitive_cpu: report.cpu_usage_of(AppClass::Sensitive),
            batch_cpu: report.cpu_usage_of(AppClass::Batch),
            utilization: report.cpu_utilization(self.host.spec()),
            actions: actions.len(),
        }
    }

    fn batch_work(&self) -> f64 {
        Harness::batch_work(self)
    }
}

/// QoS value, violation flag and activity of the tracked sensitive
/// container for a tick report.
fn qos_of(sensitive: Option<ContainerId>, report: &HostTick) -> (f64, bool, bool) {
    match sensitive.and_then(|id| report.container(id)) {
        Some(ct) if ct.active => (ct.perf, ct.perf < QOS_THRESHOLD, true),
        _ => (1.0, false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Application, Phase, PhasedApp};
    use stayaway_telemetry::HostSpec;
    use stayaway_telemetry::NullPolicy;

    fn cpu_app(name: &str, cores: f64, work: f64) -> Box<dyn Application> {
        Box::new(
            PhasedApp::builder(name)
                .phase(Phase::steady(
                    ResourceVector::zero().with(ResourceKind::Cpu, cores),
                    work,
                ))
                .build(),
        )
    }

    /// A 3-core service beside a 3-core batch job on 4 cores, observed
    /// through `noise_sd` monitoring noise.
    fn two_apps(noise_sd: f64, seed: u64) -> Harness {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("svc", 3.0, 1e9), 0);
        host.add_container(AppClass::Batch, cpu_app("batch", 3.0, 1e9), 0);
        Harness::new(host, noise_sd, seed).unwrap()
    }

    fn harness_two_apps() -> Harness {
        two_apps(0.0, 1)
    }

    #[test]
    fn records_come_from_noiseless_physics_through_the_source() {
        let mut h = two_apps(0.02, 7);
        let out = h.run(&mut NullPolicy::new(), 40);
        // The simulator never runs dry: the tick budget is the run length.
        assert_eq!(out.timeline.len(), 40);
        // Two 3-core apps on 4 cores get 2 cores each, exactly — the 2 %
        // monitoring noise perturbs observations, never the accounting.
        for record in &out.timeline {
            assert!(record.violated && record.sensitive_active);
            assert!((record.qos_value - 2.0 / 3.0).abs() < 1e-12);
            assert!((record.sensitive_cpu - 2.0).abs() < 1e-12);
            assert!((record.utilization - 1.0).abs() < 1e-12);
        }
        assert_eq!(out.qos.violations, 40);
        assert!(out.batch_work > 0.0);
        assert_eq!(out.batch_work, h.batch_work());
    }

    #[test]
    fn meta_reports_the_sim_substrate() {
        let h = two_apps(0.02, 1);
        let meta = h.meta();
        assert_eq!(meta.kind, SourceKind::Sim);
        assert_eq!(meta.metrics.len(), ResourceKind::ALL.len());
        assert_eq!(meta.host, Some(*h.host().spec()));
    }

    #[test]
    fn null_policy_lets_violations_happen() {
        let mut h = harness_two_apps();
        let out = h.run(&mut NullPolicy::new(), 20);
        assert_eq!(out.qos.active_ticks, 20);
        assert_eq!(out.qos.violations, 20); // 2/3 perf < 0.95 every tick
        assert!(out.qos.satisfaction() < 0.01);
        assert!(out.batch_work > 0.0);
    }

    /// A policy that pauses every batch container immediately.
    struct PauseAll;
    impl Policy for PauseAll {
        fn name(&self) -> &str {
            "pause-all"
        }
        fn decide(&mut self, obs: &Observation) -> Vec<Action> {
            obs.batch()
                .filter(|c| !c.paused)
                .map(|c| Action::Pause(c.id))
                .collect()
        }
    }

    #[test]
    fn pausing_batch_restores_qos() {
        let mut h = harness_two_apps();
        let out = h.run(&mut PauseAll, 20);
        // Tick 0 violates (actions land after the tick), everything after
        // is clean.
        assert_eq!(out.qos.violations, 1);
        assert!(out.timeline[1..].iter().all(|r| !r.violated));
        assert_eq!(out.timeline.last().unwrap().batch_paused, 1);
        assert_eq!(out.timeline[0].actions, 1);
        assert_eq!(out.rejected_actions, 0);
    }

    /// A policy that tries to pause the sensitive container (must be
    /// rejected by the host).
    struct PauseSensitive;
    impl Policy for PauseSensitive {
        fn name(&self) -> &str {
            "pause-sensitive"
        }
        fn decide(&mut self, obs: &Observation) -> Vec<Action> {
            obs.sensitive().map(|c| Action::Pause(c.id)).collect()
        }
    }

    #[test]
    fn pausing_sensitive_is_rejected() {
        let mut h = harness_two_apps();
        let out = h.run(&mut PauseSensitive, 5);
        assert_eq!(out.rejected_actions, 5);
        // The sensitive app kept running.
        assert!(out.timeline.iter().all(|r| r.sensitive_active));
    }

    #[test]
    fn qos_is_perfect_without_interference() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("svc", 2.0, 1e9), 0);
        let mut h = Harness::new(host, 0.0, 1).unwrap();
        let out = h.run(&mut NullPolicy::new(), 10);
        assert_eq!(out.qos.violations, 0);
        assert_eq!(out.qos.satisfaction(), 1.0);
    }

    #[test]
    fn gained_utilization_counts_batch_only() {
        let mut h = harness_two_apps();
        let out = h.run(&mut NullPolicy::new(), 10);
        let cap = h.host().spec().cpu_cores;
        // Each app gets 2 cores of 4: batch share = 0.5.
        assert!((out.mean_gained_utilization(cap) - 0.5).abs() < 1e-9);
        assert!((out.mean_utilization() - 1.0).abs() < 1e-9);
        assert_eq!(out.gained_utilization_series(cap).len(), 10);
    }

    #[test]
    fn noise_perturbs_observations_but_not_physics() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("svc", 2.0, 1e9), 0);
        let mut h = Harness::new(host, 0.05, 7).unwrap();

        struct Capture(Vec<f64>);
        impl Policy for Capture {
            fn name(&self) -> &str {
                "capture"
            }
            fn decide(&mut self, obs: &Observation) -> Vec<Action> {
                self.0.push(obs.containers[0].usage.get(ResourceKind::Cpu));
                Vec::new()
            }
        }
        let mut cap = Capture(Vec::new());
        let out = h.run(&mut cap, 20);
        // Physics unchanged: no violations.
        assert_eq!(out.qos.violations, 0);
        // Observations fluctuate around 2.0.
        let mean: f64 = cap.0.iter().sum::<f64>() / cap.0.len() as f64;
        assert!((mean - 2.0).abs() < 0.15, "mean = {mean}");
        assert!(cap.0.iter().any(|&v| (v - 2.0).abs() > 1e-6));
    }

    #[test]
    fn harness_without_sensitive_container() {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Batch, cpu_app("b", 1.0, 1e9), 0);
        let mut h = Harness::new(host, 0.0, 1).unwrap();
        assert!(h.sensitive.is_none());
        let out = h.run(&mut NullPolicy::new(), 5);
        assert_eq!(out.qos.active_ticks, 0);
        assert_eq!(out.qos.satisfaction(), 1.0);
    }

    #[test]
    fn invalid_noise_rejected() {
        let host = Host::new(HostSpec::default()).unwrap();
        assert!(Harness::new(host, -0.1, 1).is_err());
    }

    /// Records the noisy CPU observation of the first container each tick.
    struct CaptureCpu(Vec<u64>);
    impl Policy for CaptureCpu {
        fn name(&self) -> &str {
            "capture-cpu"
        }
        fn decide(&mut self, obs: &Observation) -> Vec<Action> {
            self.0
                .push(obs.containers[0].usage.get(ResourceKind::Cpu).to_bits());
            Vec::new()
        }
    }

    #[test]
    fn reseed_matches_fresh_harness_with_same_seed() {
        let build = || {
            let mut host = Host::new(HostSpec::default()).unwrap();
            host.add_container(AppClass::Sensitive, cpu_app("svc", 3.0, 1e9), 0);
            host.add_container(AppClass::Batch, cpu_app("b", 3.0, 1e9), 0);
            host
        };
        let observe = |seed_at_new: u64, reseed_to: Option<u64>| {
            let mut h = Harness::new(build(), 0.02, seed_at_new).unwrap();
            if let Some(seed) = reseed_to {
                h.reseed(seed);
            }
            let mut cap = CaptureCpu(Vec::new());
            h.run(&mut cap, 30);
            cap.0
        };
        // A harness seeded with 11 at construction is indistinguishable
        // from one seeded with 3 and then reseeded to 11...
        assert_eq!(observe(11, None), observe(3, Some(11)));
        // ...while a different injected seed changes the noise stream.
        assert_ne!(observe(3, Some(12)), observe(11, None));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut host = Host::new(HostSpec::default()).unwrap();
            host.add_container(AppClass::Sensitive, cpu_app("svc", 3.0, 1e9), 0);
            host.add_container(AppClass::Batch, cpu_app("b", 3.0, 1e9), 0);
            let mut h = Harness::new(host, 0.02, seed).unwrap();
            h.run(&mut NullPolicy::new(), 30)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
    }
}
