//! Gaussian kernel density estimation.
//!
//! Figure 5 of the paper plots "the smoothed version of the histogram using
//! kernel density estimation" for the step-length and angle distributions of
//! each execution mode. This module provides that smoothing, plus *smoothed
//! bootstrap* sampling (draw a data point uniformly, add kernel noise) which
//! is exactly a draw from the KDE. The predictor does not use it — it
//! inverts the histogram CDF, as the paper does; the KDE is for inspection
//! and the figure-5 renderings.

use crate::TrajectoryError;
use rand::Rng;

/// A fitted Gaussian KDE over one-dimensional samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

/// Silverman's rule-of-thumb bandwidth: `0.9 · min(σ, IQR/1.34) · n^{−1/5}`.
///
/// Falls back to a small positive constant for degenerate (constant)
/// samples so the KDE stays well-defined.
pub fn silverman_bandwidth(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 1e-3;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64;
    let sd = var.sqrt();

    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (n - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    };
    let iqr = q(0.75) - q(0.25);

    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let h = 0.9 * spread * (n as f64).powf(-0.2);
    if h.is_finite() && h > 0.0 {
        h
    } else {
        1e-3
    }
}

impl Kde {
    /// Fits a KDE with Silverman's bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] for an empty sample set
    /// and [`TrajectoryError::NonFinite`] for non-finite samples.
    pub fn fit(samples: &[f64]) -> Result<Self, TrajectoryError> {
        Kde::fit_with_bandwidth(samples, silverman_bandwidth(samples))
    }

    /// Fits a KDE with an explicit bandwidth.
    ///
    /// # Errors
    ///
    /// As [`Kde::fit`], plus [`TrajectoryError::InvalidParameter`] when the
    /// bandwidth is not a positive finite number.
    pub fn fit_with_bandwidth(samples: &[f64], bandwidth: f64) -> Result<Self, TrajectoryError> {
        if samples.is_empty() {
            return Err(TrajectoryError::InsufficientData {
                required: 1,
                available: 0,
            });
        }
        if samples.iter().any(|s| !s.is_finite()) {
            return Err(TrajectoryError::NonFinite);
        }
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(TrajectoryError::InvalidParameter { name: "bandwidth" });
        }
        Ok(Kde {
            samples: samples.to_vec(),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the KDE holds no samples (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Estimated density at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        self.samples
            .iter()
            .map(|&s| {
                let z = (x - s) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// Draws one value from the KDE via the smoothed bootstrap: pick a data
    /// point uniformly, perturb it with `N(0, h²)` noise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let idx = rng.gen_range(0..self.samples.len());
        let base = self.samples[idx];
        // Box–Muller transform for a standard normal draw.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        base + self.bandwidth * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_peaks_near_data_mass() {
        let samples = vec![0.0, 0.01, -0.01, 0.02, 5.0];
        let kde = Kde::fit(&samples).unwrap();
        assert!(kde.density(0.0) > kde.density(2.5));
        assert!(kde.density(5.0) > kde.density(2.5));
    }

    #[test]
    fn density_integrates_to_one() {
        let samples: Vec<f64> = (0..50).map(|i| (i as f64 * 0.13).sin()).collect();
        let kde = Kde::fit(&samples).unwrap();
        let mut integral = 0.0;
        let (lo, hi) = (-3.0, 3.0);
        let steps = 3000;
        let dx = (hi - lo) / steps as f64;
        for k in 0..steps {
            integral += kde.density(lo + (k as f64 + 0.5) * dx) * dx;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral = {integral}");
    }

    #[test]
    fn silverman_bandwidth_scales_with_spread() {
        let narrow: Vec<f64> = (0..100).map(|i| i as f64 * 0.001).collect();
        let wide: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        assert!(silverman_bandwidth(&wide) > silverman_bandwidth(&narrow));
    }

    #[test]
    fn degenerate_samples_get_positive_bandwidth() {
        assert!(silverman_bandwidth(&[1.0, 1.0, 1.0]) > 0.0);
        assert!(silverman_bandwidth(&[]) > 0.0);
        assert!(silverman_bandwidth(&[2.0]) > 0.0);
        // Constant data can still be fitted and sampled.
        let kde = Kde::fit(&[1.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = kde.sample(&mut rng);
        assert!((s - 1.0).abs() < 0.1);
    }

    #[test]
    fn sampling_reproduces_mean() {
        let samples: Vec<f64> = (0..200).map(|i| 2.0 + (i as f64 * 0.37).sin()).collect();
        let kde = Kde::fit(&samples).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 5000;
        let mean: f64 = (0..n).map(|_| kde.sample(&mut rng)).sum::<f64>() / n as f64;
        let data_mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - data_mean).abs() < 0.05, "{mean} vs {data_mean}");
    }

    #[test]
    fn validation_errors() {
        assert!(Kde::fit(&[]).is_err());
        assert!(Kde::fit(&[f64::NAN]).is_err());
        assert!(Kde::fit_with_bandwidth(&[1.0], 0.0).is_err());
        assert!(Kde::fit_with_bandwidth(&[1.0], f64::NAN).is_err());
    }
}
