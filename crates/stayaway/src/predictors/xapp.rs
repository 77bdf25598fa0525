//! Quantitative cross-application interference scorer
//! (Alves & Drummond style).

use super::{clean_features, contention_pairs, Forecast, Predictor, PredictorKind, PredictorStats};
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};

/// Online logistic learning rate — small enough to smooth per-tick noise,
/// large enough to converge within one warm-up window.
const LEARNING_RATE: f64 = 0.08;

/// Verdict threshold on the slowdown estimate (a probability).
const VIOLATION_THRESHOLD: f64 = 0.5;

/// Observed transitions before the scorer starts issuing verdicts
/// (mirrors the trajectory models' warm-up gate).
const MIN_OBSERVATIONS: u64 = 4;

/// A quantitative interference model: per-resource contention features →
/// scalar slowdown estimate → threshold verdict.
///
/// Each period the normalised `⟨sensitive, total⟩` measurement vector is
/// folded into per-resource `(sensitive, contention)` features, and an
/// online logistic regression learns to map those features to the
/// probability that the tick violates QoS. The forecast evaluates the
/// current features: an estimate above `VIOLATION_THRESHOLD` predicts
/// the next co-located state violates. Fully deterministic — the model
/// never draws from the controller RNG.
#[derive(Debug)]
pub struct XAppPredictor {
    /// One weight per feature (`2` per resource: sensitive level and
    /// contention), sized lazily from the first observation.
    weights: Vec<f64>,
    bias: f64,
    observations: u64,
    rejected: u64,
}

impl Default for XAppPredictor {
    fn default() -> Self {
        XAppPredictor::new()
    }
}

impl XAppPredictor {
    /// Creates an untrained scorer.
    pub fn new() -> Self {
        XAppPredictor {
            weights: Vec::new(),
            bias: 0.0,
            observations: 0,
            rejected: 0,
        }
    }

    /// Flattens the per-resource `(sensitive, contention)` pairs into the
    /// model's feature vector, counting sanitised inputs.
    fn features(&mut self, map: &MapStage, sensed: &Sensed) -> Vec<f64> {
        let (clean, rejected) = clean_features(map, sensed);
        self.rejected += rejected;
        contention_pairs(&clean)
            .into_iter()
            .flat_map(|(sensitive, contention)| [sensitive, contention])
            .collect()
    }

    /// The learned slowdown estimate for a feature vector, in `[0, 1]`.
    fn score(&self, features: &[f64]) -> f64 {
        let z: f64 = self.bias
            + self
                .weights
                .iter()
                .zip(features)
                .map(|(w, x)| w * x)
                .sum::<f64>();
        // Guarded logistic: a non-finite accumulation (impossible with
        // sanitised inputs, kept as a hard backstop) scores neutral.
        if z.is_finite() {
            1.0 / (1.0 + (-z).exp())
        } else {
            0.5
        }
    }
}

impl Predictor for XAppPredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::XApp
    }

    fn observe(
        &mut self,
        map: &MapStage,
        _prev: Option<(usize, ExecutionMode)>,
        _rep: usize,
        _point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError> {
        let features = self.features(map, sensed);
        if self.weights.len() != features.len() {
            self.weights = vec![0.0; features.len()];
        }
        // One logistic SGD step toward the observed violation label.
        let label = if sensed.violated { 1.0 } else { 0.0 };
        let err = label - self.score(&features);
        for (w, x) in self.weights.iter_mut().zip(&features) {
            *w += LEARNING_RATE * err * x;
            if !w.is_finite() {
                *w = 0.0;
                self.rejected += 1;
            }
        }
        self.bias += LEARNING_RATE * err;
        if !self.bias.is_finite() {
            self.bias = 0.0;
            self.rejected += 1;
        }
        self.observations += 1;
        Ok(())
    }

    fn forecast(
        &mut self,
        map: &MapStage,
        _rep: Option<usize>,
        sensed: &Sensed,
        _point: Point2,
        _rng: &mut StdRng,
    ) -> Option<Forecast> {
        if self.observations < MIN_OBSERVATIONS {
            return None;
        }
        let features = self.features(map, sensed);
        let estimate = self.score(&features);
        let predicted_violation = estimate > VIOLATION_THRESHOLD;
        Some(Forecast {
            predicted_violation,
            votes: usize::from(predicted_violation),
            samples: 1,
        })
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats {
            rejected: self.rejected,
        }
    }
}
