//! Fleet-level error type.

use stayaway_core::CoreError;
use stayaway_sim::SimError;
use stayaway_statespace::StateSpaceError;
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
    /// A cell's simulator failed.
    Sim(SimError),
    /// A cell's controller failed.
    Core(CoreError),
    /// A cell's observation source failed.
    Telemetry(TelemetryError),
    /// A cluster host's workload engine failed.
    Workload(WorkloadError),
    /// Template registry (de)serialisation failed.
    Registry(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidConfig { reason } => {
                write!(f, "invalid fleet configuration: {reason}")
            }
            FleetError::Sim(e) => write!(f, "cell simulator error: {e}"),
            FleetError::Core(e) => write!(f, "cell controller error: {e}"),
            FleetError::Telemetry(e) => write!(f, "cell observation source error: {e}"),
            FleetError::Workload(e) => write!(f, "cluster host workload error: {e}"),
            FleetError::Registry(reason) => write!(f, "template registry error: {reason}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => Some(e),
            FleetError::Core(e) => Some(e),
            FleetError::Telemetry(e) => Some(e),
            FleetError::Workload(e) => Some(e),
            _ => None,
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

impl From<StateSpaceError> for FleetError {
    fn from(e: StateSpaceError) -> Self {
        FleetError::Registry(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = FleetError::InvalidConfig {
            reason: "cells must be positive".into(),
        };
        assert!(e.to_string().contains("cells must be positive"));
    }
}
