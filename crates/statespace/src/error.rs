use std::fmt;

/// Error type for state-space operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StateSpaceError {
    /// A state index was out of bounds.
    UnknownState {
        /// The offending index.
        index: usize,
        /// Number of states in the map.
        len: usize,
    },
    /// A numeric parameter was invalid (negative, NaN, …).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
    },
    /// Template (de)serialisation failed.
    Template(String),
    /// A template file could not be read or written, or held no valid
    /// template; the message names the file and what was attempted
    /// (`cannot read <path>: …`).
    Io(std::io::Error),
}

impl fmt::Display for StateSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateSpaceError::UnknownState { index, len } => {
                write!(f, "unknown state index {index} (map holds {len} states)")
            }
            StateSpaceError::InvalidParameter { name } => {
                write!(f, "invalid parameter `{name}`")
            }
            StateSpaceError::Template(msg) => write!(f, "template error: {msg}"),
            StateSpaceError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StateSpaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateSpaceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StateSpaceError::UnknownState { index: 7, len: 3 };
        assert!(e.to_string().contains('7'));
        let e = StateSpaceError::InvalidParameter { name: "epsilon" };
        assert!(e.to_string().contains("epsilon"));
    }

    /// The error is returned per period (`StateMap::entry` and friends),
    /// so growing it costs the steady loop; a path belongs in the message.
    #[test]
    fn error_stays_three_words() {
        assert_eq!(std::mem::size_of::<StateSpaceError>(), 24);
    }

    #[test]
    fn a_file_error_names_its_path_and_sources() {
        use std::error::Error;
        let missing = std::env::temp_dir().join(format!("stayaway-{}.json", std::process::id()));
        let e = crate::Template::load_from_path(&missing).unwrap_err();
        let named = format!("cannot read {}: ", missing.display());
        assert!(e.to_string().starts_with(&named), "{e}");
        assert!(e.source().is_some());
        // A file that opens but holds no template is named too.
        std::fs::write(&missing, "{\"").unwrap();
        let e = crate::Template::load_from_path(&missing).unwrap_err();
        std::fs::remove_file(&missing).unwrap();
        assert!(
            e.to_string()
                .starts_with(&format!("{named}template error: ")),
            "{e}"
        );
    }
}
