//! Controller telemetry: aggregate statistics and per-stage timing.
//!
//! Decisions themselves are not kept here: each one is emitted once, to
//! the [`stayaway_obs::FlightRecorder`] carried by
//! [`crate::Observability`] (DESIGN.md §16).

use serde::{Deserialize, Serialize};

/// Why a throttled batch application was resumed (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResumeReason {
    /// The sensitive application's isolated states drifted more than β —
    /// a phase or workload change.
    PhaseChange,
    /// The random anti-starvation factor fired after a long stable period.
    Optimistic,
}

/// Invocation count and accumulated wall-time of one pipeline stage.
///
/// Wall-time is diagnostic only: two bit-identical runs disagree on
/// nanoseconds, so equality compares invocation counts alone — the
/// determinism suite can keep asserting `stats == stats` while perf PRs
/// still see which stage burns the per-period budget.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageClock {
    /// Times the stage ran.
    pub invocations: u64,
    /// Accumulated wall-clock nanoseconds across those invocations.
    pub nanos: u64,
}

impl PartialEq for StageClock {
    fn eq(&self, other: &Self) -> bool {
        self.invocations == other.invocations
    }
}

/// Per-stage accounting of the staged control pipeline
/// (Sense → Map → Predict → Act), surfaced via
/// [`ControllerStats::stage_timing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Observation → raw measurement vector (violation detection included).
    pub sense: StageClock,
    /// Dedup + incremental MDS + state-map upkeep.
    pub map: StageClock,
    /// Verdict verification, trajectory update and candidate sampling.
    pub predict: StageClock,
    /// Throttle/resume decisions and β adaptation.
    pub act: StageClock,
}

/// Ratio of `hits` over `checks`, or `None` when nothing was checked.
///
/// A 0/0 ratio used to report `1.0`, which let exporters advertise 100 %
/// prediction accuracy before a single check had run; `None` makes the
/// "no data yet" case explicit so callers can omit the series instead.
///
/// The one fold helper genuinely shared between the controller's
/// [`ControllerStats::prediction_accuracy`] and the fleet rollup's pooled
/// accuracy — kept here (its single home) and re-used by `stayaway-fleet`.
pub fn hit_ratio(hits: u64, checks: u64) -> Option<f64> {
    if checks == 0 {
        None
    } else {
        Some(hits as f64 / checks as f64)
    }
}

/// Aggregate controller statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Control periods executed.
    pub periods: u64,
    /// Violations reported by the sensitive application.
    pub violations_observed: u64,
    /// Predictions that flagged an impending violation.
    pub violations_predicted: u64,
    /// Throttle actions issued.
    pub throttles: u64,
    /// Resume actions issued.
    pub resumes: u64,
    /// Predictions whose in-range verdict was checked against the actually
    /// reached next state.
    pub prediction_checks: u64,
    /// Checked predictions whose verdict matched reality.
    pub prediction_hits: u64,
    /// Representative states currently held.
    pub states: usize,
    /// Violation-states currently held.
    pub violation_states: usize,
    /// Control periods skipped because the mapping pipeline errored.
    pub mapping_errors: u64,
    /// Raw metric samples rejected by the sense stage — non-finite or
    /// negative readings sanitised to zero before embedding.
    pub samples_rejected: u64,
    /// Records the controller's [`stayaway_obs::FlightRecorder`] evicted or
    /// refused because its ring was full; 0 for a controller built without
    /// a recorder, which retains no events.
    pub events_dropped: u64,
    /// Per-stage tick counters and wall-time of the control pipeline.
    pub stage_timing: StageTiming,
}

impl ControllerStats {
    /// Fraction of checked predictions that matched the actually reached
    /// state (the §3.2.3 accuracy measure). `None` when nothing was
    /// checked yet — not a claim of perfect accuracy.
    pub fn prediction_accuracy(&self) -> Option<f64> {
        hit_ratio(self.prediction_hits, self.prediction_checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_without_checks_is_unknown() {
        assert_eq!(ControllerStats::default().prediction_accuracy(), None);
    }

    #[test]
    fn accuracy_is_hit_ratio() {
        let s = ControllerStats {
            prediction_checks: 10,
            prediction_hits: 9,
            ..ControllerStats::default()
        };
        assert!((s.prediction_accuracy().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn stage_clock_equality_ignores_wall_time() {
        let clock = |invocations, nanos| StageClock { invocations, nanos };
        assert_eq!(
            clock(1, 10),
            clock(1, 9999),
            "same invocation count must compare equal"
        );
        assert_ne!(clock(1, 10), clock(2, 10_000));
    }

    #[test]
    fn hit_ratio_handles_zero_checks() {
        assert_eq!(hit_ratio(0, 0), None);
        assert_eq!(hit_ratio(3, 4), Some(0.75));
    }
}
