use std::fmt;

/// Error type for telemetry-plane operations: source construction, trace
/// encoding/decoding and procfs sampling.
#[derive(Debug)]
#[non_exhaustive]
pub enum TelemetryError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The sink a trace was being written to failed.
    Record(std::io::Error),
    /// A trace file could not be read: it would not open, or a line of it
    /// failed to read or decode.
    File {
        /// The file's path (boxed, so the error stays as small as it was).
        path: Box<std::path::Path>,
        /// The underlying failure.
        error: std::io::Error,
    },
    /// A trace or procfs line failed to decode.
    Codec {
        /// 1-based line number of the offending line within its file.
        line: u64,
        /// Description of the decode failure.
        reason: String,
    },
    /// A trace stream did not start with a recognisable header line.
    MissingHeader {
        /// Description of what was found instead.
        reason: String,
    },
    /// A trace header declared a format version this build cannot read.
    UnsupportedVersion {
        /// The version declared by the trace.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// The requested source is not available in this environment (e.g.
    /// procfs sampling on a host without `/proc`).
    Unsupported {
        /// Description of the missing capability.
        reason: String,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            TelemetryError::Io(e) => write!(f, "i/o error: {e}"),
            TelemetryError::Record(e) => write!(f, "cannot write the trace: {e}"),
            TelemetryError::File { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
            TelemetryError::Codec { line, reason } => {
                write!(f, "codec error at line {line}: {reason}")
            }
            TelemetryError::MissingHeader { reason } => {
                write!(f, "missing trace header: {reason}")
            }
            TelemetryError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported trace version {found} (this build reads up to {supported})"
                )
            }
            TelemetryError::Unsupported { reason } => write!(f, "unsupported source: {reason}"),
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Io(e)
            | TelemetryError::Record(e)
            | TelemetryError::File { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TelemetryError {
    fn from(e: std::io::Error) -> Self {
        TelemetryError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TelemetryError::InvalidConfig {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
        assert!(TelemetryError::Codec {
            line: 7,
            reason: "trailing garbage".into()
        }
        .to_string()
        .contains("line 7"));
        assert!(TelemetryError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(TelemetryError::MissingHeader {
            reason: "empty file".into()
        }
        .to_string()
        .contains("header"));
    }

    #[test]
    fn io_source_is_chained() {
        use std::error::Error;
        let e = TelemetryError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    /// The error is returned on every control period, so growing it costs
    /// the steady loop; a path or message belongs behind a box.
    #[test]
    fn error_stays_four_words() {
        assert_eq!(std::mem::size_of::<TelemetryError>(), 32);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetryError>();
    }
}
