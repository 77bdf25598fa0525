//! Reactive throttling: act only after the damage is observed.

use stayaway_core::ControlPolicy;
use stayaway_sim::{Action, ContainerId, Observation, Policy};

/// Pauses all active batch containers when the sensitive application
/// reports a QoS violation and resumes them after `cooldown` consecutive
/// violation-free ticks — the phase-in/phase-out shape of reactive runtimes
/// such as Bubble-Flux, minus any prediction. Compared to Stay-Away it (a)
/// always pays at least one violation per contention episode and (b) resumes
/// blindly, re-violating whenever the contention persists.
#[derive(Debug, Clone)]
pub struct ReactivePolicy {
    cooldown: u64,
    quiet_ticks: u64,
    paused: Vec<ContainerId>,
}

impl ReactivePolicy {
    /// Creates the policy; `cooldown` is the number of violation-free ticks
    /// before a resume (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cooldown == 0`.
    pub fn new(cooldown: u64) -> Self {
        assert!(cooldown > 0, "cooldown must be positive");
        ReactivePolicy {
            cooldown,
            quiet_ticks: 0,
            paused: Vec::new(),
        }
    }
}

impl Policy for ReactivePolicy {
    fn name(&self) -> &str {
        "reactive"
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        if observation.qos_violation {
            self.quiet_ticks = 0;
            if self.paused.is_empty() {
                let targets: Vec<ContainerId> = observation
                    .batch()
                    .filter(|c| c.active)
                    .map(|c| c.id)
                    .collect();
                self.paused = targets.clone();
                return targets.into_iter().map(Action::Pause).collect();
            }
            return Vec::new();
        }

        if !self.paused.is_empty() {
            self.quiet_ticks += 1;
            if self.quiet_ticks >= self.cooldown {
                self.quiet_ticks = 0;
                return self.paused.drain(..).map(Action::Resume).collect();
            }
        }
        Vec::new()
    }
}

/// Tracks no stats, keeps no log, supports no templates: pure defaults.
impl ControlPolicy for ReactivePolicy {}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_sim::scenario::Scenario;
    use stayaway_sim::NullPolicy;

    #[test]
    fn reduces_violations_vs_no_prevention() {
        let scenario = Scenario::vlc_with_cpubomb(2);
        let mut h0 = scenario.build_harness().unwrap();
        let base = h0.run(&mut NullPolicy::new(), 200);
        let mut h1 = scenario.build_harness().unwrap();
        let out = h1.run(&mut ReactivePolicy::new(10), 200);
        assert!(
            out.qos.violations < base.qos.violations / 2,
            "reactive {} vs baseline {}",
            out.qos.violations,
            base.qos.violations
        );
    }

    #[test]
    fn pays_repeated_violations_under_persistent_contention() {
        // Against CPUBomb every resume re-violates: the reactive policy
        // keeps paying, roughly once per cooldown window.
        let mut h = Scenario::vlc_with_cpubomb(2).build_harness().unwrap();
        let out = h.run(&mut ReactivePolicy::new(10), 250);
        assert!(
            out.qos.violations >= 5,
            "expected periodic re-violations, got {}",
            out.qos.violations
        );
    }

    #[test]
    fn resumes_after_cooldown() {
        let mut h = Scenario::vlc_with_cpubomb(2).build_harness().unwrap();
        let mut p = ReactivePolicy::new(5);
        let out = h.run(&mut p, 60);
        // The batch container must have been resumed at least once after
        // the first pause (i.e. active again at some later tick).
        let first_pause = out
            .timeline
            .iter()
            .position(|r| r.batch_paused > 0)
            .expect("bomb must get paused");
        assert!(
            out.timeline[first_pause..]
                .iter()
                .any(|r| r.batch_active > 0),
            "batch never resumed"
        );
    }

    #[test]
    #[should_panic(expected = "cooldown")]
    fn zero_cooldown_panics() {
        let _ = ReactivePolicy::new(0);
    }
}
