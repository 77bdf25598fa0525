//! Fleet-level error type.

use stayaway_core::CoreError;
use stayaway_sim::SimError;
use stayaway_telemetry::TelemetryError;
use stayaway_workload::WorkloadError;

/// Anything that can go wrong while planning or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet configuration is inconsistent.
    InvalidConfig {
        /// Human-readable description of the first problem found.
        reason: String,
    },
    /// The simulator failed.
    Sim(SimError),
    /// The controller failed.
    Core(CoreError),
    /// The observation source failed.
    Telemetry(TelemetryError),
    /// The workload engine failed.
    Workload(WorkloadError),
    /// Template registry (de)serialisation failed.
    Registry(String),
    /// The error arose in the fleet cell or cluster host named first
    /// (`cell 3`, `host 0`).
    At(String, Box<FleetError>),
}

impl FleetError {
    /// Locates an error in fleet cell or cluster host `idx`, for `map_err`.
    pub(crate) fn at<E: Into<Self>>(place: &'static str, idx: usize) -> impl FnOnce(E) -> Self {
        move |error| FleetError::At(format!("{place} {idx}"), Box::new(error.into()))
    }
}

/// The cause, unframed: only [`FleetError::At`] says where it arose.
impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidConfig { reason } | FleetError::Registry(reason) => {
                f.write_str(reason)
            }
            FleetError::Sim(e) => e.fmt(f),
            FleetError::Core(e) => e.fmt(f),
            FleetError::Telemetry(e) => e.fmt(f),
            FleetError::Workload(e) => e.fmt(f),
            FleetError::At(place, error) => write!(f, "{place}: {error}"),
        }
    }
}

/// The display already holds the wrapped error, so the source is its own.
impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => e.source(),
            FleetError::Core(e) => e.source(),
            FleetError::Telemetry(e) => e.source(),
            FleetError::Workload(e) => e.source(),
            FleetError::At(_, error) => error.source(),
            FleetError::InvalidConfig { .. } | FleetError::Registry(_) => None,
        }
    }
}

impl From<SimError> for FleetError {
    fn from(e: SimError) -> Self {
        FleetError::Sim(e)
    }
}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Core(e)
    }
}

impl From<TelemetryError> for FleetError {
    fn from(e: TelemetryError) -> Self {
        FleetError::Telemetry(e)
    }
}

impl From<WorkloadError> for FleetError {
    fn from(e: WorkloadError) -> Self {
        FleetError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_cause_and_only_at_names_a_place() {
        let e = FleetError::InvalidConfig {
            reason: "cells must be positive".into(),
        };
        assert_eq!(e.to_string(), "cells must be positive");
        let located = FleetError::at("cell", 3)(e);
        assert_eq!(located.to_string(), "cell 3: cells must be positive");
    }
}
