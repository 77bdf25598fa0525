//! The simulator-backed observation source.

use crate::harness::Harness;
use stayaway_telemetry::{
    Action, Observation, ObservationSource, ResourceKind, SourceKind, SourceMeta, TelemetryError,
    TickRecord,
};

/// The simulator substrate is the [`Harness`] itself: one host step and
/// its (noisy) observation per pull, actions applied to the host, and
/// accounting records taken from the harness's noiseless physics rather
/// than from the noisy observation. [`Harness::run`] and
/// [`Harness::step_with`] are `stayaway_telemetry::drive`/`step` over this
/// impl, so there is no second simulator loop for it to agree with.
impl ObservationSource for Harness {
    fn meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Sim,
            metrics: ResourceKind::ALL.to_vec(),
            tick_period_secs: 1.0,
            host: Some(*self.host().spec()),
        }
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let mut observation = self.spare.take().unwrap_or_default();
        self.tick_observation_into(&mut observation);
        Ok(Some(observation))
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        Ok(Harness::apply(self, actions))
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        self.record_for_last(actions.len()).unwrap_or_else(|| {
            stayaway_telemetry::derive_record(observation, actions.len(), Some(self.host().spec()))
        })
    }

    fn batch_work(&self) -> f64 {
        Harness::batch_work(self)
    }
}

/// An owning [`ObservationSource`] handle on a [`Harness`], for consumers
/// that hold a `Box<dyn ObservationSource>` (fleet cells, the trace tee).
/// Driving a `SimSource` is driving the harness: every method forwards to
/// the harness's own impl.
#[derive(Debug)]
pub struct SimSource {
    harness: Harness,
}

impl SimSource {
    /// Wraps a harness.
    pub fn new(harness: Harness) -> Self {
        SimSource { harness }
    }

    /// Shared access to the wrapped harness.
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// Mutable access to the wrapped harness (reseeding, host setup).
    pub fn harness_mut(&mut self) -> &mut Harness {
        &mut self.harness
    }

    /// Unwraps the harness.
    pub fn into_harness(self) -> Harness {
        self.harness
    }
}

impl From<Harness> for SimSource {
    fn from(harness: Harness) -> Self {
        SimSource::new(harness)
    }
}

impl ObservationSource for SimSource {
    fn meta(&self) -> SourceMeta {
        self.harness.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        self.harness.next_observation()
    }

    fn recycle(&mut self, observation: Observation) {
        self.harness.recycle(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        ObservationSource::apply(&mut self.harness, actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        self.harness.record_for(observation, actions)
    }

    fn batch_work(&self) -> f64 {
        ObservationSource::batch_work(&self.harness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppClass, Application, Phase, PhasedApp};
    use crate::host::{Host, HostSpec};
    use crate::policy::NullPolicy;
    use crate::qos::QosSpec;
    use crate::resources::ResourceVector;
    use stayaway_telemetry::drive;

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

    fn harness(seed: u64) -> Harness {
        let mut host = Host::new(HostSpec::default()).unwrap();
        host.add_container(AppClass::Sensitive, cpu_app("svc", 3.0, 1e9), 0);
        host.add_container(AppClass::Batch, cpu_app("batch", 3.0, 1e9), 0);
        Harness::new(host, QosSpec::new(0.95).unwrap(), 0.02, seed).unwrap()
    }

    #[test]
    fn records_come_from_noiseless_physics_through_the_source() {
        let mut source = SimSource::new(harness(7));
        let out = drive(&mut source, &mut NullPolicy::new(), 40).unwrap();
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
        assert_eq!(out.batch_work, source.harness().batch_work());
    }

    #[test]
    fn meta_reports_the_sim_substrate() {
        let source = SimSource::new(harness(1));
        let meta = source.meta();
        assert_eq!(meta.kind, SourceKind::Sim);
        assert_eq!(meta.metrics.len(), ResourceKind::ALL.len());
        assert_eq!(meta.host, Some(*source.harness().host().spec()));
    }

    /// A policy that pauses every batch container immediately: exercises
    /// the actuation path through the source.
    struct PauseAll;
    impl stayaway_telemetry::Policy for PauseAll {
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
    fn actions_actuate_the_host_through_the_source() {
        let mut source = SimSource::new(harness(3));
        let out = drive(&mut source, &mut PauseAll, 20).unwrap();
        assert_eq!(out.qos.violations, 1); // only tick 0, before the pause lands
        assert_eq!(out.timeline.last().unwrap().batch_paused, 1);
        assert_eq!(out.timeline[0].actions, 1);
        assert_eq!(out.rejected_actions, 0);
    }
}
