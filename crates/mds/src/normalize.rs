//! Per-metric min-max normalisation (§4 of the paper).
//!
//! Metric values span wildly different ranges (CPU in `[0, cores·100]`,
//! memory in megabytes, I/O in MB/s, …); feeding them to MDS unnormalised
//! would let large-valued metrics dominate every distance. The paper
//! normalises all metrics into `[0, 1]`. We do this against *configured
//! bounds* (host capacities) rather than the observed min/max, so the
//! mapping from raw value to normalised value is stable over the lifetime of
//! an execution — a requirement for the state map to be reusable as a
//! template (§6).

use crate::MdsError;
use serde::{Deserialize, Serialize};

/// Inclusive value bounds for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricBounds {
    min: f64,
    max: f64,
}

impl MetricBounds {
    /// Creates bounds `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::NonFinite`] if either bound is not finite or
    /// `max <= min`.
    pub fn new(min: f64, max: f64) -> Result<Self, MdsError> {
        if !min.is_finite() || !max.is_finite() || max <= min {
            return Err(MdsError::NonFinite {
                context: "metric bounds",
            });
        }
        Ok(MetricBounds { min, max })
    }

    /// Bounds `[0, max]` — the common case for resource usage metrics.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::NonFinite`] if `max` is not finite or `<= 0`.
    pub fn zero_to(max: f64) -> Result<Self, MdsError> {
        MetricBounds::new(0.0, max)
    }

    /// Maps `value` into `[0, 1]`, clamping values outside the bounds.
    pub(crate) fn normalize(&self, value: f64) -> f64 {
        if value.is_nan() {
            return 0.0;
        }
        ((value - self.min) / (self.max - self.min)).clamp(0.0, 1.0)
    }
}

/// Normalises fixed-layout measurement vectors metric-by-metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    bounds: Vec<MetricBounds>,
}

impl Normalizer {
    /// Creates a normaliser for vectors whose `i`-th entry obeys
    /// `bounds[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::Empty`] when `bounds` is empty.
    pub fn new(bounds: Vec<MetricBounds>) -> Result<Self, MdsError> {
        if bounds.is_empty() {
            return Err(MdsError::Empty);
        }
        Ok(Normalizer { bounds })
    }

    /// Expected vector dimensionality.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// Normalises a measurement vector into `[0, 1]^dim`.
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] for wrong-length input.
    pub fn normalize(&self, vector: &[f64]) -> Result<Vec<f64>, MdsError> {
        let mut out = Vec::with_capacity(vector.len());
        self.normalize_into(vector, &mut out)?;
        Ok(out)
    }

    /// [`Normalizer::normalize`] into `out` (overwritten; untouched on
    /// error).
    ///
    /// # Errors
    ///
    /// Returns [`MdsError::DimensionMismatch`] for wrong-length input.
    pub fn normalize_into(&self, vector: &[f64], out: &mut Vec<f64>) -> Result<(), MdsError> {
        if vector.len() != self.bounds.len() {
            return Err(MdsError::DimensionMismatch {
                expected: self.bounds.len(),
                found: vector.len(),
            });
        }
        out.clear();
        out.extend(
            vector
                .iter()
                .zip(&self.bounds)
                .map(|(v, b)| b.normalize(*v)),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_normalize_and_clamp() {
        let b = MetricBounds::zero_to(400.0).unwrap();
        assert_eq!(b.normalize(0.0), 0.0);
        assert_eq!(b.normalize(200.0), 0.5);
        assert_eq!(b.normalize(400.0), 1.0);
        assert_eq!(b.normalize(500.0), 1.0);
        assert_eq!(b.normalize(-5.0), 0.0);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        assert!(MetricBounds::new(1.0, 1.0).is_err());
        assert!(MetricBounds::new(2.0, 1.0).is_err());
        assert!(MetricBounds::new(f64::NAN, 1.0).is_err());
        assert!(MetricBounds::zero_to(0.0).is_err());
    }

    #[test]
    fn normalizer_maps_vectors() {
        let n = Normalizer::new(vec![
            MetricBounds::zero_to(400.0).unwrap(),
            MetricBounds::zero_to(8192.0).unwrap(),
        ])
        .unwrap();
        let out = n.normalize(&[100.0, 4096.0]).unwrap();
        assert_eq!(out, vec![0.25, 0.5]);
    }

    #[test]
    fn normalizer_rejects_wrong_length() {
        let n = Normalizer::new(vec![MetricBounds::zero_to(1.0).unwrap(); 3]).unwrap();
        assert!(n.normalize(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn nan_input_normalizes_to_zero() {
        let b = MetricBounds::zero_to(1.0).unwrap();
        assert_eq!(b.normalize(f64::NAN), 0.0);
    }

    #[test]
    fn unit_normalizer_clamps_only() {
        let n = Normalizer::new(vec![MetricBounds::zero_to(1.0).unwrap(); 2]).unwrap();
        let out = n.normalize(&[0.5, 1.5]).unwrap();
        assert_eq!(out, vec![0.5, 1.0]);
    }
}
