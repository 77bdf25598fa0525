use std::fmt;

/// Error type for simulator operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A container id did not resolve.
    UnknownContainer {
        /// The offending id value.
        id: usize,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// An action was rejected (e.g. pausing a sensitive container).
    ActionRejected {
        /// Description of the rejection.
        reason: String,
    },
    /// A scenario name that [`crate::scenario::Scenario::parse`] cannot
    /// resolve; the message names the malformed or unknown part.
    UnknownScenario(String),
    /// An empty or non-finite workload trace.
    Trace(String),
    /// A telemetry-plane failure (invalid host spec etc.).
    Telemetry(stayaway_telemetry::TelemetryError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownContainer { id } => write!(f, "unknown container id {id}"),
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::ActionRejected { reason } => write!(f, "action rejected: {reason}"),
            SimError::UnknownScenario(msg) => f.write_str(msg),
            SimError::Trace(msg) => write!(f, "trace error: {msg}"),
            SimError::Telemetry(e) => write!(f, "telemetry error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Telemetry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stayaway_telemetry::TelemetryError> for SimError {
    fn from(e: stayaway_telemetry::TelemetryError) -> Self {
        SimError::Telemetry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::UnknownContainer { id: 3 }
            .to_string()
            .contains('3'));
        assert!(SimError::InvalidConfig {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
