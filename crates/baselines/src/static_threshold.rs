//! Static-profiling baseline: a fixed co-location rule decided "offline".

use stayaway_core::ControlPolicy;
use stayaway_sim::{Action, AppClass, ContainerId, Observation, Policy, ResourceKind};

/// Pauses the batch containers whenever the sensitive application's CPU
/// usage exceeds a fixed fraction of the machine, and resumes them when it
/// falls back below. This models the static a-priori approaches of §1
/// (Bubble-Up-style profiling): the rule is fixed before the run, knows
/// nothing about *which* resource actually contends, and cannot adapt —
/// so it both over-throttles (CPU spikes that would not have violated) and
/// under-throttles (memory/cache contention at low CPU).
#[derive(Debug, Clone)]
pub struct StaticThresholdPolicy {
    threshold_fraction: f64,
    cpu_capacity: f64,
    paused: Vec<ContainerId>,
}

impl StaticThresholdPolicy {
    /// Creates the policy: throttle while sensitive CPU usage exceeds
    /// `threshold_fraction` (in `(0, 1]`) of `cpu_capacity` cores.
    ///
    /// # Panics
    ///
    /// Panics when the fraction is outside `(0, 1]` or the capacity is not
    /// positive.
    pub fn new(threshold_fraction: f64, cpu_capacity: f64) -> Self {
        assert!(
            threshold_fraction > 0.0 && threshold_fraction <= 1.0,
            "threshold fraction must be in (0, 1]"
        );
        assert!(cpu_capacity > 0.0, "cpu capacity must be positive");
        StaticThresholdPolicy {
            threshold_fraction,
            cpu_capacity,
            paused: Vec::new(),
        }
    }

    /// The CPU-usage threshold in cores.
    pub(crate) fn threshold_cores(&self) -> f64 {
        self.threshold_fraction * self.cpu_capacity
    }
}

impl Policy for StaticThresholdPolicy {
    fn name(&self) -> &str {
        "static-threshold"
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        let sensitive_cpu: f64 = observation
            .containers
            .iter()
            .filter(|c| c.class == AppClass::Sensitive)
            .map(|c| c.usage.get(ResourceKind::Cpu))
            .sum();
        let hot = sensitive_cpu > self.threshold_cores();

        if hot && self.paused.is_empty() {
            let targets: Vec<ContainerId> = observation
                .batch()
                .filter(|c| c.active)
                .map(|c| c.id)
                .collect();
            self.paused = targets.clone();
            targets.into_iter().map(Action::Pause).collect()
        } else if !hot && !self.paused.is_empty() {
            self.paused.drain(..).map(Action::Resume).collect()
        } else {
            Vec::new()
        }
    }
}

/// Tracks no stats, keeps no log, supports no templates: pure defaults.
impl ControlPolicy for StaticThresholdPolicy {}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_sim::scenario::Scenario;
    use stayaway_sim::NullPolicy;

    #[test]
    fn throttles_on_high_sensitive_load() {
        let scenario = Scenario::vlc_with_cpubomb(4);
        let mut h0 = scenario.build_harness().unwrap();
        let base = h0.run(&mut NullPolicy::new(), 250);
        let mut h1 = scenario.build_harness().unwrap();
        // Throttle while VLC uses more than 35% of the machine.
        let cap = h1.host().spec().cpu_cores;
        let out = h1.run(&mut StaticThresholdPolicy::new(0.35, cap), 250);
        assert!(out.qos.violations < base.qos.violations);
    }

    #[test]
    fn blind_to_memory_contention() {
        use stayaway_sim::apps::WebWorkload;
        use stayaway_sim::scenario::BatchKind;
        // Webservice memory workload + MemoryBomb: the violation channel is
        // RAM/swap, invisible to a CPU threshold → violations remain close
        // to no-prevention levels.
        let scenario =
            Scenario::webservice_with(WebWorkload::MemIntensive, BatchKind::MemoryBomb, 4);
        let mut h0 = scenario.build_harness().unwrap();
        let base = h0.run(&mut NullPolicy::new(), 250);
        let mut h1 = scenario.build_harness().unwrap();
        let cap = h1.host().spec().cpu_cores;
        let out = h1.run(&mut StaticThresholdPolicy::new(0.8, cap), 250);
        assert!(
            out.qos.violations * 2 >= base.qos.violations,
            "static threshold should not fix memory contention: {} vs {}",
            out.qos.violations,
            base.qos.violations
        );
    }

    #[test]
    fn threshold_accessor() {
        let p = StaticThresholdPolicy::new(0.5, 4.0);
        assert_eq!(p.threshold_cores(), 2.0);
        assert_eq!(p.name(), "static-threshold");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        let _ = StaticThresholdPolicy::new(0.0, 4.0);
    }
}
