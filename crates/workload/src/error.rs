//! Workload-plane error type.

use std::fmt;

/// Anything that can go wrong while building or running a request-driven
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A scenario/tenant/process parameter is out of range.
    InvalidSpec {
        /// Human-readable description of the first problem found.
        reason: String,
    },
    /// A scenario name not present in the library.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidSpec { reason } => {
                write!(f, "invalid workload specification: {reason}")
            }
            WorkloadError::UnknownScenario { name } => {
                write!(
                    f,
                    "unknown workload scenario '{name}' (see `stayaway list`)"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = WorkloadError::InvalidSpec {
            reason: "rps must be positive".into(),
        };
        assert!(e.to_string().contains("rps must be positive"));
        let e = WorkloadError::UnknownScenario {
            name: "warp-core".into(),
        };
        assert!(e.to_string().contains("warp-core"));
    }
}
