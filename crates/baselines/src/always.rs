//! The isolated-run bound: batch applications never execute.

use stayaway_core::ControlPolicy;
use stayaway_sim::{Action, Observation, Policy};

/// Pauses every batch container as soon as it is seen running. The
/// sensitive application effectively runs alone: perfect QoS, zero gained
/// utilisation — the over-provisioning status quo the paper's introduction
/// argues against.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysThrottle;

impl AlwaysThrottle {
    /// Creates the policy.
    pub fn new() -> Self {
        AlwaysThrottle
    }
}

impl Policy for AlwaysThrottle {
    fn name(&self) -> &str {
        "always-throttle"
    }

    fn decide(&mut self, observation: &Observation) -> Vec<Action> {
        observation
            .batch()
            .filter(|c| c.active)
            .map(|c| Action::Pause(c.id))
            .collect()
    }
}

/// Tracks no stats, keeps no log, supports no templates: pure defaults.
impl ControlPolicy for AlwaysThrottle {}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_sim::scenario::Scenario;

    #[test]
    fn yields_perfect_qos_and_no_gain() {
        let mut h = Scenario::vlc_with_cpubomb(1).build_harness().unwrap();
        let out = h.run(&mut AlwaysThrottle::new(), 150);
        // Only the first co-located tick can violate (the pause lands after
        // the tick that observed the bomb).
        assert!(
            out.qos.violations <= 1,
            "violations = {}",
            out.qos.violations
        );
        let cap = h.host().spec().cpu_cores;
        assert!(out.mean_gained_utilization(cap) < 0.01);
    }

    #[test]
    fn repauses_after_external_resume() {
        let mut h = Scenario::vlc_with_cpubomb(1).build_harness().unwrap();
        let mut p = AlwaysThrottle::new();
        h.run(&mut p, 40);
        // Resume behind the policy's back; it must re-pause.
        let batch_id = h
            .host()
            .containers()
            .find(|c| c.class() == stayaway_sim::AppClass::Batch)
            .unwrap()
            .id();
        assert_eq!(h.apply(&[Action::Resume(batch_id)]), 0);
        let out = h.run(&mut p, 5);
        assert!(out.timeline.last().unwrap().batch_paused > 0);
    }
}
