//! An owning forwarder on the simulator harness.

use crate::harness::Harness;
use stayaway_telemetry::{
    Action, Observation, ObservationSource, SourceMeta, TelemetryError, TickRecord,
};

/// An owning handle on a [`Harness`], which is an [`ObservationSource`]
/// itself: every method forwards to the harness's own impl. No library
/// code uses it; the perf ledger (`benchmarks/`) imports it by this name.
#[derive(Debug)]
pub struct SimSource(Harness);

impl SimSource {
    /// Wraps a harness.
    pub fn new(harness: Harness) -> Self {
        Self(harness)
    }
}

impl ObservationSource for SimSource {
    fn meta(&self) -> SourceMeta {
        self.0.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        self.0.next_observation()
    }

    fn recycle(&mut self, observation: Observation) {
        self.0.recycle(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        ObservationSource::apply(&mut self.0, actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        self.0.record_for(observation, actions)
    }

    fn batch_work(&self) -> f64 {
        ObservationSource::batch_work(&self.0)
    }
}
