//! The experiment harness: closed loop of host, QoS accounting and policy.

use crate::app::AppClass;
use crate::container::ContainerId;
use crate::host::{Host, HostTick};
use crate::policy::{Action, Observation, Policy};
use crate::qos::QosSpec;
use crate::resources::{ResourceKind, ResourceVector};
use crate::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use stayaway_telemetry::{RunOutcome, TickRecord};

/// Closed-loop experiment driver.
#[derive(Debug)]
pub struct Harness {
    host: Host,
    qos: QosSpec,
    sensitive: Option<ContainerId>,
    noise: Noise,
    /// Physics report of the most recent tick, kept so the accounting
    /// record can be built after the policy acted (see
    /// [`Harness::record_for_last`]), and refilled by the next tick.
    last_report: Option<HostTick>,
    /// The observation handed back through
    /// [`stayaway_telemetry::ObservationSource::recycle`], refilled by the
    /// next pull.
    pub(crate) spare: Option<Observation>,
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
    /// Wraps a host. The QoS of the *first sensitive container* is tracked;
    /// monitoring noise is multiplicative Gaussian with standard deviation
    /// `noise_sd` (0.0 disables it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a negative or non-finite
    /// `noise_sd`.
    pub fn new(host: Host, qos: QosSpec, noise_sd: f64, seed: u64) -> Result<Self, SimError> {
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
            qos,
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

    /// The tracked sensitive container, if any.
    pub fn sensitive_id(&self) -> Option<ContainerId> {
        self.sensitive
    }

    /// The QoS requirement in force.
    pub fn qos_spec(&self) -> QosSpec {
        self.qos
    }

    /// Shared access to the host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable access to the host (scenario setup, manual throttling).
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// Advances the host one tick and returns the (noisy) observation of
    /// it — the "sense" half of a closed-loop step. The physics report is
    /// retained for [`Harness::record_for_last`].
    pub fn tick_observation(&mut self) -> Observation {
        let mut observation = Observation::default();
        self.tick_observation_into(&mut observation);
        observation
    }

    /// [`Harness::tick_observation`] into `out`, overwriting every field
    /// and reusing its container entries and their name strings.
    pub fn tick_observation_into(&mut self, out: &mut Observation) {
        let report = self.last_report.get_or_insert_with(HostTick::default);
        self.host.step_into(report);
        let (qos_value, violation, _active) = qos_of(self.qos, self.sensitive, report);
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

    /// Builds the ground-truth accounting record for the most recent
    /// [`Harness::tick_observation`] tick (noiseless physics, unlike the
    /// observation). `None` before the first tick.
    pub fn record_for_last(&self, actions: usize) -> Option<TickRecord> {
        let report = self.last_report.as_ref()?;
        let (qos_value, violated, sensitive_active) = qos_of(self.qos, self.sensitive, report);
        Some(TickRecord {
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
            actions,
        })
    }

    /// Total nominal batch work completed so far.
    pub fn batch_work(&self) -> f64 {
        self.host
            .containers()
            .filter(|c| c.class() == AppClass::Batch)
            .map(|c| c.app().work_done())
            .sum()
    }

    /// Runs one closed-loop tick: advance the host, observe, let the policy
    /// act, and apply the actions (they take effect from the next tick).
    /// This is [`stayaway_telemetry::step`] over the harness as its own
    /// [`stayaway_telemetry::ObservationSource`].
    pub fn step_with(&mut self, policy: &mut dyn Policy) -> (TickRecord, u64) {
        stayaway_telemetry::step(self, policy)
            .ok()
            .flatten()
            .expect("the simulator source neither fails nor runs dry")
    }

    /// Runs `ticks` closed-loop ticks under `policy`:
    /// [`stayaway_telemetry::drive`] over the harness itself.
    pub fn run(&mut self, policy: &mut dyn Policy, ticks: u64) -> RunOutcome {
        stayaway_telemetry::drive(self, policy, ticks).expect("the simulator source never fails")
    }
}

/// QoS value, violation flag and activity of the tracked sensitive
/// container for a tick report.
fn qos_of(qos: QosSpec, sensitive: Option<ContainerId>, report: &HostTick) -> (f64, bool, bool) {
    match sensitive.and_then(|id| report.container(id)) {
        Some(ct) if ct.active => (ct.perf, qos.is_violation(ct.perf), true),
        _ => (1.0, false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Application, Phase, PhasedApp};
    use crate::host::HostSpec;
    use crate::policy::NullPolicy;

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

    fn harness_two_apps() -> Harness {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("svc", 3.0, 1e9), 0);
        host.add_container(AppClass::Batch, cpu_app("batch", 3.0, 1e9), 0);
        Harness::new(host, QosSpec::new(0.95).unwrap(), 0.0, 1).unwrap()
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
        let mut h = Harness::new(host, QosSpec::default(), 0.0, 1).unwrap();
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
        let mut h = Harness::new(host, QosSpec::default(), 0.05, 7).unwrap();

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
        let mut h = Harness::new(host, QosSpec::default(), 0.0, 1).unwrap();
        assert!(h.sensitive_id().is_none());
        let out = h.run(&mut NullPolicy::new(), 5);
        assert_eq!(out.qos.active_ticks, 0);
        assert_eq!(out.qos.satisfaction(), 1.0);
    }

    #[test]
    fn invalid_noise_rejected() {
        let host = Host::new(HostSpec::default()).unwrap();
        assert!(Harness::new(host, QosSpec::default(), -0.1, 1).is_err());
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
            let mut h = Harness::new(build(), QosSpec::default(), 0.02, seed_at_new).unwrap();
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
            let mut h = Harness::new(host, QosSpec::default(), 0.02, seed).unwrap();
            h.run(&mut NullPolicy::new(), 30)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
    }
}
