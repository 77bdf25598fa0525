//! Stage 1 — Sense: one per-VM observation becomes the controller's raw
//! inputs (§3.1, §5).
//!
//! The stage classifies the execution mode from container activity,
//! assesses the QoS-violation signal (application-reported or
//! IPC-inferred), assembles the raw `⟨sensitive, total⟩` measurement
//! vector with logical-VM aggregation, and remembers the logical batch
//! VM's usage while it runs so the act stage can later estimate what a
//! resume would add to the host load.

use crate::aggregate::{
    batch_usage_vector_into, measurement_vector_into, protected_active, throttleable_active,
};
use crate::violation::{ViolationDetection, ViolationDetector};
use stayaway_statespace::ExecutionMode;
use stayaway_telemetry::{Observation, ResourceKind};

/// Everything one control period senses from the observation.
#[derive(Debug, Clone)]
pub struct Sensed {
    /// The tick the observation describes.
    pub tick: u64,
    /// Execution mode derived from protected/throttleable activity.
    pub mode: ExecutionMode,
    /// Whether this tick counts as a QoS violation.
    pub violated: bool,
    /// Raw (unnormalised) measurement vector `⟨sensitive, total⟩` over the
    /// configured metrics.
    pub raw: Vec<f64>,
    /// Raw metric values rejected this period — non-finite or negative
    /// readings sanitised to zero before they could poison the embedding.
    pub rejected: u64,
}

/// The sensing stage: observation → [`Sensed`].
#[derive(Debug)]
pub struct SenseStage {
    metrics: Vec<ResourceKind>,
    detector: ViolationDetector,
    /// Raw metric usage of the logical batch VM when it last ran, used by
    /// the act stage to estimate the co-located state a resume would
    /// produce. Refilled in place.
    last_batch_usage: Option<Vec<f64>>,
    /// The raw vector of the last [`Sensed`] handed back through
    /// [`SenseStage::recycle`], refilled by the next observation.
    spare_raw: Vec<f64>,
}

impl SenseStage {
    /// Creates the stage for the configured metrics and violation source.
    pub fn new(metrics: &[ResourceKind], detection: ViolationDetection) -> Self {
        SenseStage {
            metrics: metrics.to_vec(),
            detector: ViolationDetector::new(detection),
            last_batch_usage: None,
            spare_raw: Vec::new(),
        }
    }

    /// Senses one observation. Also refreshes the remembered logical-batch
    /// usage whenever throttleable containers are active (a pure function
    /// of the observation, so recording it here — at the start of the
    /// period — is equivalent to the historical mid-period update).
    ///
    /// Raw metric values are sanitised on the way in: non-finite or
    /// negative readings (possible from procfs counter wraps, clock skew
    /// in recorded traces, or hand-edited trace files) are replaced with
    /// zero and counted in [`Sensed::rejected`] rather than silently
    /// poisoning the embedding downstream.
    pub fn observe(&mut self, observation: &Observation) -> Sensed {
        let mode = ExecutionMode::from_activity(
            protected_active(observation),
            throttleable_active(observation),
        );
        let violated = self.detector.assess(observation);
        let mut raw = std::mem::take(&mut self.spare_raw);
        measurement_vector_into(observation, &self.metrics, &mut raw);
        let mut rejected = sanitize(&mut raw);
        if throttleable_active(observation) {
            let batch = self.last_batch_usage.get_or_insert_with(Vec::new);
            batch_usage_vector_into(observation, &self.metrics, batch);
            rejected += sanitize(batch);
        }
        Sensed {
            tick: observation.tick,
            mode,
            violated,
            raw,
            rejected,
        }
    }

    /// Takes back a period's [`Sensed`] once every stage is done with it,
    /// so the next [`SenseStage::observe`] refills its raw vector instead
    /// of allocating one.
    pub fn recycle(&mut self, sensed: Sensed) {
        self.spare_raw = sensed.raw;
    }

    /// The logical batch VM's usage when it last ran, if ever.
    pub fn last_batch_usage(&self) -> Option<&[f64]> {
        self.last_batch_usage.as_deref()
    }
}

/// Replaces non-finite or negative values with zero; returns how many
/// values were rejected.
fn sanitize(values: &mut [f64]) -> u64 {
    let mut rejected = 0;
    for v in values.iter_mut() {
        if !v.is_finite() || *v < 0.0 {
            *v = 0.0;
            rejected += 1;
        }
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::ViolationDetection;
    use stayaway_telemetry::{AppClass, ContainerId, ContainerObs, ResourceVector};

    fn obs_with_usage(cpu_sensitive: f64, cpu_batch: f64) -> Observation {
        let container = |id: usize, class, cpu| ContainerObs {
            id: ContainerId::from_raw(id),
            name: format!("c{id}"),
            class,
            active: true,
            paused: false,
            finished: false,
            usage: ResourceVector::zero().with(ResourceKind::Cpu, cpu),
            ipc: 1.0,
            priority: 0,
        };
        Observation {
            tick: 0,
            containers: vec![
                container(0, AppClass::Sensitive, cpu_sensitive),
                container(1, AppClass::Batch, cpu_batch),
            ],
            qos_violation: false,
            qos_value: 1.0,
        }
    }

    #[test]
    fn clean_observations_reject_nothing() {
        let mut stage = SenseStage::new(&[ResourceKind::Cpu], ViolationDetection::AppReported);
        let sensed = stage.observe(&obs_with_usage(1.5, 2.0));
        assert_eq!(sensed.rejected, 0);
        assert_eq!(sensed.raw, vec![1.5, 3.5]);
    }

    #[test]
    fn non_finite_and_negative_values_are_zeroed_and_counted() {
        let mut stage = SenseStage::new(&[ResourceKind::Cpu], ViolationDetection::AppReported);
        // NaN in the sensitive reading propagates into both halves of the
        // measurement vector and into the remembered batch usage.
        let sensed = stage.observe(&obs_with_usage(f64::NAN, -2.0));
        assert!(sensed.raw.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(sensed.rejected > 0);
        let batch = stage.last_batch_usage().unwrap();
        assert!(batch.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn infinity_is_rejected() {
        let mut stage = SenseStage::new(&[ResourceKind::Cpu], ViolationDetection::AppReported);
        let sensed = stage.observe(&obs_with_usage(f64::INFINITY, 1.0));
        assert!(sensed.raw.iter().all(|v| v.is_finite()));
        assert!(sensed.rejected > 0);
    }
}
