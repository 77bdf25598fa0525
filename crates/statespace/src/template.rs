//! Reusable violation templates (§6 of the paper).
//!
//! The violation-states captured while a repeatable sensitive application
//! ran with batch application *A* remain valid violation-states when the
//! same sensitive application later runs with batch application *B*: the
//! states describe load on the *resources*, not the identity of the
//! co-runner. A [`Template`] therefore stores the **normalised
//! high-dimensional measurement vectors** of labelled states — not their
//! 2-D coordinates, which are an artifact of one particular embedding — and
//! is replayed into a fresh controller, which re-embeds them in its own map.

use crate::StateSpaceError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// One labelled measurement vector inside a template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemplateState {
    /// Normalised measurement vector (each entry in `[0, 1]`).
    pub vector: Vec<f64>,
    /// True when this state was observed during a QoS violation.
    pub violation: bool,
}

/// A persistable map of labelled states for one sensitive application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Template {
    /// Name of the sensitive application this template describes.
    sensitive_app: String,
    /// Dimensionality of the stored vectors.
    dim: usize,
    states: Vec<TemplateState>,
}

impl Template {
    /// Creates an empty template for the named sensitive application with
    /// measurement vectors of length `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidParameter`] when `dim == 0`.
    pub fn new(sensitive_app: impl Into<String>, dim: usize) -> Result<Self, StateSpaceError> {
        if dim == 0 {
            return Err(StateSpaceError::InvalidParameter { name: "dim" });
        }
        Ok(Template {
            sensitive_app: sensitive_app.into(),
            dim,
            states: Vec::new(),
        })
    }

    /// Name of the sensitive application.
    pub fn sensitive_app(&self) -> &str {
        &self.sensitive_app
    }

    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no states are stored.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterates over the stored states.
    pub fn iter(&self) -> impl Iterator<Item = &TemplateState> + '_ {
        self.states.iter()
    }

    /// Number of violation-labelled states.
    pub fn violation_count(&self) -> usize {
        self.states.iter().filter(|s| s.violation).count()
    }

    /// Adds a labelled state.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidParameter`] for wrong-length
    /// vectors and for entries outside `[0, 1]` (non-finite ones included).
    pub fn push(&mut self, vector: Vec<f64>, violation: bool) -> Result<(), StateSpaceError> {
        if vector.len() != self.dim {
            return Err(StateSpaceError::InvalidParameter { name: "vector.len" });
        }
        if !is_normalised(&vector) {
            return Err(StateSpaceError::InvalidParameter { name: "vector" });
        }
        self.states.push(TemplateState { vector, violation });
        Ok(())
    }

    /// Merges the states of `other` into `self` (used to accumulate
    /// knowledge across several runs of the same sensitive application).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidParameter`] when dimensions differ
    /// or the templates describe different sensitive applications.
    pub fn merge(&mut self, other: &Template) -> Result<(), StateSpaceError> {
        if other.dim != self.dim {
            return Err(StateSpaceError::InvalidParameter { name: "other.dim" });
        }
        if other.sensitive_app != self.sensitive_app {
            return Err(StateSpaceError::InvalidParameter {
                name: "other.sensitive_app",
            });
        }
        self.states.extend(other.states.iter().cloned());
        Ok(())
    }

    /// Serialises the template as JSON to a writer.
    ///
    /// A mutable reference can be passed as the writer.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::Template`] on serialisation failure.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), StateSpaceError> {
        serde_json::to_writer_pretty(writer, self)
            .map_err(|e| StateSpaceError::Template(e.to_string()))
    }

    /// Deserialises a template from a JSON reader.
    ///
    /// A mutable reference can be passed as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::Template`] on malformed input or when the
    /// decoded template violates its own invariants.
    pub fn load<R: Read>(reader: R) -> Result<Self, StateSpaceError> {
        let t: Template = serde_json::from_reader(reader)
            .map_err(|e| StateSpaceError::Template(e.to_string()))?;
        if t.dim == 0 {
            return Err(StateSpaceError::Template("dim must be positive".into()));
        }
        for s in &t.states {
            if s.vector.len() != t.dim {
                return Err(StateSpaceError::Template(format!(
                    "state vector length {} != dim {}",
                    s.vector.len(),
                    t.dim
                )));
            }
            if !is_normalised(&s.vector) {
                return Err(StateSpaceError::Template(
                    "coordinate outside [0, 1]".into(),
                ));
            }
        }
        Ok(t)
    }

    /// Saves to a filesystem path.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn save_to_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), StateSpaceError> {
        let file = std::fs::File::create(path)?;
        self.save(file)
    }

    /// Loads from a filesystem path.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialisation failures.
    pub fn load_from_path(path: impl AsRef<std::path::Path>) -> Result<Self, StateSpaceError> {
        let file = std::fs::File::open(path)?;
        Template::load(file)
    }
}

/// Every entry in `[0, 1]`, where a normaliser puts it. A template read
/// from a file may hold anything; a far-out coordinate would overflow the
/// grid the map indexes its states by.
fn is_normalised(vector: &[f64]) -> bool {
    vector.iter().all(|v| (0.0..=1.0).contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Template {
        let mut t = Template::new("vlc-streaming", 3).unwrap();
        t.push(vec![0.1, 0.2, 0.3], false).unwrap();
        t.push(vec![0.9, 0.9, 0.8], true).unwrap();
        t.push(vec![0.5, 0.4, 0.2], false).unwrap();
        t
    }

    #[test]
    fn push_and_count() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.violation_count(), 1);
        assert_eq!(t.dim, 3);
        assert_eq!(t.sensitive_app(), "vlc-streaming");
    }

    #[test]
    fn push_validates() {
        let mut t = Template::new("x", 2).unwrap();
        assert!(t.push(vec![0.1], false).is_err());
        assert!(t.push(vec![f64::NAN, 0.0], false).is_err());
        assert!(t.push(vec![0.5, 1.5], false).is_err());
        assert!(t.push(vec![-0.1, 0.5], false).is_err());
        assert!(t.push(vec![0.0, 1.0], false).is_ok());
        assert!(Template::new("x", 0).is_err());
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let t2 = Template::load(buf.as_slice()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn load_rejects_corrupt_payloads() {
        assert!(Template::load(&b"not json"[..]).is_err());
        // Right shape, wrong invariant: vector length mismatch.
        let bad = r#"{"sensitive_app":"x","dim":2,"states":[{"vector":[0.1],"violation":false}]}"#;
        assert!(Template::load(bad.as_bytes()).is_err());
        let far =
            r#"{"sensitive_app":"x","dim":1,"states":[{"vector":[1e300],"violation":false}]}"#;
        assert!(Template::load(far.as_bytes()).is_err());
        let bad_dim = r#"{"sensitive_app":"x","dim":0,"states":[]}"#;
        assert!(Template::load(bad_dim.as_bytes()).is_err());
    }

    #[test]
    fn merge_accumulates_and_validates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.violation_count(), 2);

        let other_dim = Template::new("vlc-streaming", 4).unwrap();
        assert!(a.merge(&other_dim).is_err());
        let other_app = Template::new("webservice", 3).unwrap();
        assert!(a.merge(&other_app).is_err());
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("stayaway-template-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.save_to_path(&path).unwrap();
        let t2 = Template::load_from_path(&path).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_file(&path).ok();
    }
}
