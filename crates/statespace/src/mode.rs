//! The four execution modes of §3.2.3.
//!
//! At any instant exactly one of these holds; the trajectory pattern of the
//! mapped state depends strongly on the current mode, which is why the
//! predictor keeps one trajectory model per mode instead of a single global
//! model.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which applications are currently executing on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// No application is running.
    Idle,
    /// Only batch application(s) run.
    BatchOnly,
    /// Only the latency-sensitive application runs (also the mode entered
    /// while the batch application is throttled).
    SensitiveOnly,
    /// Both the sensitive and at least one batch application run.
    CoLocated,
}

impl ExecutionMode {
    /// All modes, in a fixed order (useful for per-mode tables).
    pub const ALL: [ExecutionMode; 4] = [
        ExecutionMode::Idle,
        ExecutionMode::BatchOnly,
        ExecutionMode::SensitiveOnly,
        ExecutionMode::CoLocated,
    ];

    /// Stable small index for array-backed per-mode storage.
    pub fn index(&self) -> usize {
        match self {
            ExecutionMode::Idle => 0,
            ExecutionMode::BatchOnly => 1,
            ExecutionMode::SensitiveOnly => 2,
            ExecutionMode::CoLocated => 3,
        }
    }

    /// Derives the mode from which application classes are active.
    ///
    /// "Active" means scheduled and not throttled: a paused batch
    /// application does not count as running (§3.3 — after throttling, the
    /// system moves to a different execution mode).
    pub fn from_activity(sensitive_running: bool, batch_running: bool) -> Self {
        match (sensitive_running, batch_running) {
            (false, false) => ExecutionMode::Idle,
            (false, true) => ExecutionMode::BatchOnly,
            (true, false) => ExecutionMode::SensitiveOnly,
            (true, true) => ExecutionMode::CoLocated,
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecutionMode::Idle => "idle",
            ExecutionMode::BatchOnly => "batch-only",
            ExecutionMode::SensitiveOnly => "sensitive-only",
            ExecutionMode::CoLocated => "co-located",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_activity_covers_all_cases() {
        assert_eq!(
            ExecutionMode::from_activity(false, false),
            ExecutionMode::Idle
        );
        assert_eq!(
            ExecutionMode::from_activity(false, true),
            ExecutionMode::BatchOnly
        );
        assert_eq!(
            ExecutionMode::from_activity(true, false),
            ExecutionMode::SensitiveOnly
        );
        assert_eq!(
            ExecutionMode::from_activity(true, true),
            ExecutionMode::CoLocated
        );
    }

    #[test]
    fn indices_are_unique_and_dense() {
        let mut seen = [false; 4];
        for m in ExecutionMode::ALL {
            assert!(!seen[m.index()]);
            seen[m.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_names() {
        assert_eq!(ExecutionMode::CoLocated.to_string(), "co-located");
        assert_eq!(ExecutionMode::Idle.to_string(), "idle");
    }
}
