//! Alioth-style denoising predictor: filter the observation vector
//! before consulting the map, learn the violation threshold online.

use super::{clean_features, contention_pairs, Forecast, Predictor, PredictorKind, PredictorStats};
use crate::stages::map::MapStage;
use crate::stages::sense::Sensed;
use crate::CoreError;
use rand::rngs::StdRng;
use stayaway_statespace::{ExecutionMode, Point2};

/// EMA smoothing factor applied after the median filter.
const EMA_ALPHA: f64 = 0.35;

/// EMA factor of the learned violation/clear pressure centroids.
const THRESHOLD_ALPHA: f64 = 0.2;

/// Median filter width (median-of-3).
const MEDIAN_WINDOW: usize = 3;

/// Observed ticks before verdicts are issued.
const MIN_OBSERVATIONS: u64 = 4;

/// A learned interference monitor that *denoises before deciding*.
///
/// Monitoring telemetry is noisy; Alioth's observation is that filtering
/// the signal before interference detection beats thresholding raw
/// samples. Each period the normalised measurement vector is
/// median-of-3 filtered, then EMA-smoothed; a scalar *pressure* (mean
/// per-resource contention) is tracked against two learned centroids —
/// the typical pressure at violating ticks and at clear ticks — and the
/// midpoint between them is the learned violation threshold. A forecast
/// predicts a violation when the denoised vector embeds inside a
/// violation-range of the map **or** the filtered pressure crosses the
/// learned threshold. Fully deterministic; never draws from the RNG.
#[derive(Debug)]
pub struct DenoisePredictor {
    /// Last `MEDIAN_WINDOW` normalised observation vectors.
    window: Vec<Vec<f64>>,
    /// EMA of the median-filtered vector.
    ema: Option<Vec<f64>>,
    /// Learned pressure centroid over violating ticks.
    violation_pressure: Option<f64>,
    /// Learned pressure centroid over clear ticks.
    clear_pressure: Option<f64>,
    observations: u64,
    rejected: u64,
}

impl Default for DenoisePredictor {
    fn default() -> Self {
        DenoisePredictor::new()
    }
}

impl DenoisePredictor {
    /// Creates an untrained monitor.
    pub fn new() -> Self {
        DenoisePredictor {
            window: Vec::new(),
            ema: None,
            violation_pressure: None,
            clear_pressure: None,
            observations: 0,
            rejected: 0,
        }
    }

    /// Pushes one normalised vector and returns the denoised view:
    /// element-wise median over the trailing window, EMA-smoothed.
    fn denoise(&mut self, clean: Vec<f64>) -> Vec<f64> {
        if self.window.len() == MEDIAN_WINDOW {
            self.window.remove(0);
        }
        self.window.push(clean);
        let dim = self.window.last().map_or(0, Vec::len);
        let median: Vec<f64> = (0..dim)
            .map(|i| {
                let mut column: Vec<f64> = self
                    .window
                    .iter()
                    .map(|v| v.get(i).copied().unwrap_or(0.0))
                    .collect();
                column.sort_by(f64::total_cmp);
                column[column.len() / 2]
            })
            .collect();
        let ema = match self.ema.take() {
            Some(prev) if prev.len() == dim => prev
                .iter()
                .zip(&median)
                .map(|(e, m)| (1.0 - EMA_ALPHA) * e + EMA_ALPHA * m)
                .collect(),
            _ => median,
        };
        self.ema = Some(ema.clone());
        ema
    }

    /// Scalar contention pressure of a denoised vector: mean of the
    /// per-resource batch contention shares.
    fn pressure(filtered: &[f64]) -> f64 {
        let pairs = contention_pairs(filtered);
        if pairs.is_empty() {
            return 0.0;
        }
        pairs.iter().map(|(_, c)| c).sum::<f64>() / pairs.len() as f64
    }

    /// The learned threshold: midpoint of the two pressure centroids,
    /// available once both have been observed and are separable.
    fn learned_threshold(&self) -> Option<f64> {
        let (violation, clear) = (self.violation_pressure?, self.clear_pressure?);
        (violation > clear).then_some((violation + clear) / 2.0)
    }
}

/// EMA update of an optional centroid.
fn update_centroid(centroid: &mut Option<f64>, value: f64) {
    *centroid = Some(match *centroid {
        Some(prev) => (1.0 - THRESHOLD_ALPHA) * prev + THRESHOLD_ALPHA * value,
        None => value,
    });
}

impl Predictor for DenoisePredictor {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Denoise
    }

    fn observe(
        &mut self,
        map: &MapStage,
        _prev: Option<(usize, ExecutionMode)>,
        _rep: usize,
        _point: Point2,
        sensed: &Sensed,
    ) -> Result<(), CoreError> {
        let (clean, rejected) = clean_features(map, sensed);
        self.rejected += rejected;
        let filtered = self.denoise(clean);
        let pressure = Self::pressure(&filtered);
        if sensed.violated {
            update_centroid(&mut self.violation_pressure, pressure);
        } else {
            update_centroid(&mut self.clear_pressure, pressure);
        }
        self.observations += 1;
        Ok(())
    }

    fn forecast(
        &mut self,
        map: &MapStage,
        _rep: Option<usize>,
        _sensed: &Sensed,
        _point: Point2,
        _rng: &mut StdRng,
    ) -> Option<Forecast> {
        if self.observations < MIN_OBSERVATIONS {
            return None;
        }
        let filtered = self.ema.clone()?;
        // Criterion 1: the denoised vector embeds in a violation-range.
        let in_range = map
            .approximate_point(&filtered)
            .is_some_and(|(point, _)| map.state_map().in_violation_range(point));
        // Criterion 2: filtered pressure crosses the learned threshold.
        let over_threshold = self
            .learned_threshold()
            .is_some_and(|threshold| Self::pressure(&filtered) > threshold);
        let votes = usize::from(in_range) + usize::from(over_threshold);
        let predicted_violation = votes > 0;
        Some(Forecast {
            predicted_violation,
            votes,
            samples: 2,
        })
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats {
            rejected: self.rejected,
        }
    }

    fn on_template_imported(&mut self, _map: &MapStage) {
        // Imported maps change the normalisation scale; learned pressure
        // centroids from the old scale no longer apply.
        self.violation_pressure = None;
        self.clear_pressure = None;
    }
}
