//! Controller configuration.

use crate::predictors::PredictorKind;
use crate::violation::ViolationDetection;
use crate::CoreError;
use stayaway_telemetry::ResourceKind;

/// Tunables of the Stay-Away controller; defaults follow the paper where it
/// states a value (β₀ = 0.01, 5 prediction samples) and sensible choices
/// elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Which metrics enter the measurement vector, per VM (§3.1: "Stay-Away
    /// does not impose any limitation on the choice of metrics").
    pub metrics: Vec<ResourceKind>,
    /// Merge radius of the representative-sample dedup (§4), in normalised
    /// units.
    pub dedup_epsilon: f64,
    /// Number of candidate future states drawn per prediction (§3.2.3 —
    /// "with 5 samples … more than 90% accuracy").
    pub prediction_samples: usize,
    /// Iteration budget of embedding one new state: rounds of its
    /// single-point placement, and majorization sweeps of the global solve
    /// when the placement does not fit.
    pub smacof_iterations: usize,
    /// Initial β: maximum allowed distance between consecutive isolated
    /// sensitive states before the batch application is resumed (§3.3).
    pub beta_initial: f64,
    /// Increment applied to β when a resume immediately re-violates.
    pub beta_increment: f64,
    /// Ticks a resume is blamed for a subsequent violation (the "resuming
    /// … immediately leads to a violation" window of §3.3).
    pub reviolation_window: u64,
    /// Ticks of sub-β stability before optimistic random resumes begin.
    pub optimistic_after: u64,
    /// Per-tick probability of an optimistic resume once eligible (§3.3's
    /// "random factor" that prevents batch starvation).
    pub optimistic_probability: f64,
    /// Soft cap on the number of representative states; beyond it new
    /// samples merge into their nearest representative.
    pub max_states: usize,
    /// When false the controller observes, maps and learns but never
    /// throttles (used by the template-validation experiment of §7.3).
    pub actions_enabled: bool,
    /// When false, violation-ranges collapse to exact-overlap matching —
    /// the conservative alternative §3.2.1 argues against (ablation).
    pub violation_range_enabled: bool,
    /// Use one trajectory model per execution mode (the paper's design).
    /// `false` pools all modes into a single model — the ablation §3.2.3
    /// argues against. Consulted by the KDE prediction plane only.
    pub per_mode_models: bool,
    /// Which prediction plane the controller runs (DESIGN.md §15): the
    /// paper's KDE/trajectory predictor (default), the cross-application
    /// interference scorer, the Alioth-style denoising monitor, or the
    /// last-tick oracle baseline.
    pub predictor: PredictorKind,
    /// How QoS violations are detected (§3.1): reported by the
    /// instrumented application, or inferred from the sensitive VM's IPC
    /// proxy.
    pub violation_detection: ViolationDetection,
    /// Seed of the controller's internal randomness (prediction sampling
    /// and optimistic resumes).
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            metrics: vec![
                ResourceKind::Cpu,
                ResourceKind::Memory,
                ResourceKind::MemBandwidth,
                ResourceKind::DiskIo,
                ResourceKind::Network,
            ],
            dedup_epsilon: 0.05,
            prediction_samples: 5,
            smacof_iterations: 20,
            beta_initial: 0.01,
            beta_increment: 0.01,
            reviolation_window: 3,
            optimistic_after: 25,
            optimistic_probability: 0.15,
            max_states: 400,
            actions_enabled: true,
            violation_range_enabled: true,
            per_mode_models: true,
            predictor: PredictorKind::Kde,
            violation_detection: ViolationDetection::AppReported,
            seed: 0,
        }
    }
}

impl ControllerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] with a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.metrics.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "metrics must not be empty".into(),
            });
        }
        if !(self.dedup_epsilon.is_finite() && self.dedup_epsilon >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "dedup_epsilon must be non-negative, got {}",
                    self.dedup_epsilon
                ),
            });
        }
        if self.prediction_samples == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "prediction_samples must be positive".into(),
            });
        }
        if !(self.beta_initial.is_finite() && self.beta_initial > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("beta_initial must be positive, got {}", self.beta_initial),
            });
        }
        if !(self.beta_increment.is_finite() && self.beta_increment >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: "beta_increment must be non-negative".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.optimistic_probability) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "optimistic_probability must be in [0, 1], got {}",
                    self.optimistic_probability
                ),
            });
        }
        if self.max_states < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "max_states must be at least 2".into(),
            });
        }
        if let ViolationDetection::IpcInferred { threshold } = self.violation_detection {
            if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("ipc threshold must be in (0, 1], got {threshold}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_constants() {
        let c = ControllerConfig::default();
        c.validate().unwrap();
        assert_eq!(c.prediction_samples, 5);
        assert_eq!(c.beta_initial, 0.01);
        assert!(c.per_mode_models);
        assert_eq!(c.predictor, PredictorKind::Kde);
        assert!(c.actions_enabled);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = ControllerConfig::default();
        let cases: Vec<ControllerConfig> = vec![
            ControllerConfig {
                metrics: vec![],
                ..base.clone()
            },
            ControllerConfig {
                dedup_epsilon: -1.0,
                ..base.clone()
            },
            ControllerConfig {
                prediction_samples: 0,
                ..base.clone()
            },
            ControllerConfig {
                beta_initial: 0.0,
                ..base.clone()
            },
            ControllerConfig {
                optimistic_probability: 1.5,
                ..base.clone()
            },
            ControllerConfig {
                max_states: 1,
                ..base.clone()
            },
        ];
        for c in cases {
            assert!(c.validate().is_err());
        }
    }
}
