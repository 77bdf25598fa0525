//! Fault injection for robustness testing.
//!
//! Real monitoring pipelines drop samples and real actuators occasionally
//! fail; a runtime controller must degrade gracefully. [`FaultInjector`]
//! wraps any [`Policy`] and, with configured probabilities, (a) blanks the
//! resource-usage observations of a tick (sensor dropout — the wrapped
//! policy sees zeros, as when a cgroup stats read fails) and (b) swallows
//! the policy's actions for a tick (actuation failure — the SIGSTOP/CONT
//! never reaches the container). The robustness integration tests drive
//! Stay-Away through this wrapper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stayaway_core::{ControlPolicy, ControllerStats, CoreError};
use stayaway_sim::{Action, Observation, Policy, ResourceVector};
use stayaway_statespace::Template;

/// Wraps a policy with seeded sensor-dropout and actuation-failure faults.
#[derive(Debug)]
pub struct FaultInjector<P> {
    inner: P,
    sensor_dropout: f64,
    action_failure: f64,
    rng: StdRng,
    dropped_observations: u64,
    dropped_actions: u64,
}

impl<P: Policy> FaultInjector<P> {
    /// Wraps `inner`. `sensor_dropout` and `action_failure` are per-tick
    /// probabilities in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(inner: P, sensor_dropout: f64, action_failure: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sensor_dropout),
            "sensor dropout must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&action_failure),
            "action failure must be a probability"
        );
        FaultInjector {
            inner,
            sensor_dropout,
            action_failure,
            rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            dropped_observations: 0,
            dropped_actions: 0,
        }
    }

    /// Observations blanked so far.
    pub fn dropped_observations(&self) -> u64 {
        self.dropped_observations
    }

    /// Action batches swallowed so far.
    pub fn dropped_actions(&self) -> u64 {
        self.dropped_actions
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped policy.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Policy> Policy for FaultInjector<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        let observation = if self.rng.gen_range(0.0..1.0) < self.sensor_dropout {
            self.dropped_observations += 1;
            // Sensor failure: the stats read returned nothing this period.
            let mut blanked = observation.clone();
            for c in &mut blanked.containers {
                c.usage = ResourceVector::zero();
                c.ipc = 0.0;
            }
            blanked
        } else {
            observation.clone()
        };
        let actions = self.inner.decide(&observation);
        if !actions.is_empty() && self.rng.gen_range(0.0..1.0) < self.action_failure {
            self.dropped_actions += 1;
            return Vec::new();
        }
        actions
    }
}

/// Faults touch only the decision loop; introspection passes through to the
/// wrapped policy undisturbed.
impl<P: ControlPolicy> ControlPolicy for FaultInjector<P> {
    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }

    fn first_throttle(&self) -> Option<(u64, bool)> {
        self.inner.first_throttle()
    }

    fn export_template(&self, sensitive_app: &str) -> Result<Option<Template>, CoreError> {
        self.inner.export_template(sensitive_app)
    }

    fn import_template(&mut self, template: &Template) -> Result<bool, CoreError> {
        self.inner.import_template(template)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlwaysThrottle;
    use stayaway_sim::scenario::Scenario;

    #[test]
    fn zero_probabilities_are_transparent() {
        let scenario = Scenario::vlc_with_cpubomb(1);
        let ticks = 60;
        let mut plain = scenario.build_harness().unwrap();
        let direct = plain.run(&mut AlwaysThrottle::new(), ticks);
        let mut wrapped_h = scenario.build_harness().unwrap();
        let mut wrapped = FaultInjector::new(AlwaysThrottle::new(), 0.0, 0.0, 7);
        let faulty = wrapped_h.run(&mut wrapped, ticks);
        assert_eq!(direct, faulty);
        assert_eq!(wrapped.dropped_observations(), 0);
        assert_eq!(wrapped.dropped_actions(), 0);
    }

    /// Pauses and resumes the batch containers on alternating ticks, so
    /// every tick carries actions for the injector to swallow.
    struct ToggleBatch {
        tick: u64,
    }

    impl Policy for ToggleBatch {
        fn name(&self) -> &str {
            "toggle-batch"
        }

        fn decide(&mut self, observation: &Observation) -> Vec<Action> {
            self.tick += 1;
            let pause = self.tick.is_multiple_of(2);
            observation
                .batch()
                .map(|c| {
                    if pause {
                        Action::Pause(c.id)
                    } else {
                        Action::Resume(c.id)
                    }
                })
                .collect()
        }
    }

    #[test]
    fn faults_are_counted_and_deterministic() {
        let run = |seed: u64| {
            let scenario = Scenario::vlc_with_cpubomb(2);
            let mut h = scenario.build_harness().unwrap();
            let mut w = FaultInjector::new(ToggleBatch { tick: 0 }, 0.3, 0.3, seed);
            let out = h.run(&mut w, 100);
            (out, w.dropped_observations(), w.dropped_actions())
        };
        let (o1, d1, a1) = run(5);
        let (o2, d2, a2) = run(5);
        assert_eq!(o1, o2);
        assert_eq!((d1, a1), (d2, a2));
        assert!(d1 > 10, "expected ~30 dropped observations, got {d1}");
        assert!(a1 > 10, "expected ~30 dropped action batches, got {a1}");
        // Different seeds inject different faults.
        let (o3, _, _) = run(6);
        assert_ne!(o1, o3);
    }

    #[test]
    fn action_failures_delay_but_do_not_defeat_always_throttle() {
        let scenario = Scenario::vlc_with_cpubomb(3);
        let mut h = scenario.build_harness().unwrap();
        // Half the pause attempts fail, but the policy retries every tick.
        let mut w = FaultInjector::new(AlwaysThrottle::new(), 0.0, 0.5, 11);
        let out = h.run(&mut w, 150);
        // The bomb is down by the end.
        assert!(out.timeline.last().unwrap().batch_paused > 0);
        assert!(out.qos.violations < 20);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = FaultInjector::new(AlwaysThrottle::new(), 1.5, 0.0, 0);
    }
}
