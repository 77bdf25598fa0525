//! Fixed-bin empirical histograms with CDF inversion.
//!
//! The paper's predictor draws future-state candidates "following the
//! histogram using the inverse transform method" — i.e. it inverts the
//! empirical CDF at uniform random inputs. [`Histogram::inverse_cdf`]
//! implements that inversion with linear interpolation inside bins, so the
//! sampled values are continuous rather than snapped to bin centres.

use crate::TrajectoryError;

/// An equal-width-bin histogram over a closed range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram of `samples` over `[min, max]` with `bins` bins.
    /// Samples outside the range are clamped into the boundary bins.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InvalidParameter`] when `bins == 0` or
    /// `max <= min`, and [`TrajectoryError::NonFinite`] for non-finite
    /// samples or bounds.
    pub(crate) fn from_samples(
        samples: &[f64],
        bins: usize,
        min: f64,
        max: f64,
    ) -> Result<Self, TrajectoryError> {
        if bins == 0 {
            return Err(TrajectoryError::InvalidParameter { name: "bins" });
        }
        let mut h = Histogram {
            min,
            max,
            counts: vec![0u64; bins],
            total: 0,
        };
        h.recount(samples, min, max)?;
        Ok(h)
    }

    /// Re-bins `samples` over `[min, max]` in place, keeping the bin count
    /// and the counts buffer: afterwards `self` equals
    /// `from_samples(samples, self.bins(), min, max)`. On error its
    /// contents are unspecified.
    fn recount(&mut self, samples: &[f64], min: f64, max: f64) -> Result<(), TrajectoryError> {
        if !min.is_finite() || !max.is_finite() {
            return Err(TrajectoryError::NonFinite);
        }
        if max <= min {
            return Err(TrajectoryError::InvalidParameter { name: "range" });
        }
        self.min = min;
        self.max = max;
        self.counts.fill(0);
        self.total = 0;
        for &s in samples {
            if !s.is_finite() {
                return Err(TrajectoryError::NonFinite);
            }
            self.insert(s);
        }
        Ok(())
    }

    /// Builds a histogram with the range taken from the data itself
    /// (degenerate all-equal data gets a tiny symmetric range around it).
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::InsufficientData`] for an empty sample
    /// set and propagates `Histogram::from_samples` failures.
    pub fn auto_range(samples: &[f64], bins: usize) -> Result<Self, TrajectoryError> {
        let (lo, hi) = auto_bounds(samples)?;
        Histogram::from_samples(samples, bins, lo, hi)
    }

    /// [`Histogram::auto_range`] in place, keeping the bin count and the
    /// counts buffer. On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Those of [`Histogram::auto_range`].
    pub(crate) fn recount_auto_range(&mut self, samples: &[f64]) -> Result<(), TrajectoryError> {
        let (lo, hi) = auto_bounds(samples)?;
        self.recount(samples, lo, hi)
    }

    /// The bin a sample falls into (clamped into the boundary bins).
    fn bin_of(&self, x: f64) -> usize {
        let bins = self.counts.len();
        let unit = ((x - self.min) / (self.max - self.min)).clamp(0.0, 1.0);
        ((unit * bins as f64) as usize).min(bins - 1)
    }

    /// Counts one more (finite) sample.
    pub(crate) fn insert(&mut self, x: f64) {
        let i = self.bin_of(x);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Uncounts a sample that was inserted under the same bounds.
    pub(crate) fn remove(&mut self, x: f64) {
        let i = self.bin_of(x);
        self.counts[i] -= 1;
        self.total -= 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    pub(crate) fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.bins() as f64
    }

    /// Probability mass of bin `i` (0.0 when the histogram is empty).
    pub fn mass(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Centre of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        self.min + (i as f64 + 0.5) * self.bin_width()
    }

    /// Inverse of the empirical CDF at `u ∈ [0, 1]`, with linear
    /// interpolation inside the selected bin — the inverse-transform kernel
    /// of the predictor.
    ///
    /// Returns the range minimum for an empty histogram.
    pub(crate) fn inverse_cdf(&self, u: f64) -> f64 {
        if self.total == 0 {
            return self.min;
        }
        let u = u.clamp(0.0, 1.0);
        let target = u * self.total as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                // Linear interpolation within the bin.
                let frac = (target - cum) / c as f64;
                return self.min + (i as f64 + frac) * self.bin_width();
            }
            cum = next;
        }
        self.max
    }

    /// Skewness of the underlying samples approximated from bin centres —
    /// used to detect the directional *bias* the paper observes in every
    /// real trajectory (a perfectly unbiased walk would be symmetric).
    ///
    /// Returns 0.0 when fewer than two samples or zero variance.
    pub fn skewness(&self) -> f64 {
        if self.total < 2 {
            return 0.0;
        }
        let n = self.total as f64;
        let mean: f64 = (0..self.bins())
            .map(|i| self.bin_center(i) * self.counts[i] as f64)
            .sum::<f64>()
            / n;
        let var: f64 = (0..self.bins())
            .map(|i| {
                let d = self.bin_center(i) - mean;
                d * d * self.counts[i] as f64
            })
            .sum::<f64>()
            / n;
        if var <= 0.0 {
            return 0.0;
        }
        let m3: f64 = (0..self.bins())
            .map(|i| {
                let d = self.bin_center(i) - mean;
                d * d * d * self.counts[i] as f64
            })
            .sum::<f64>()
            / n;
        m3 / var.powf(1.5)
    }
}

/// The range [`Histogram::auto_range`] bins `samples` over: their extremes,
/// widened symmetrically when they coincide.
fn auto_bounds(samples: &[f64]) -> Result<(f64, f64), TrajectoryError> {
    if samples.is_empty() {
        return Err(TrajectoryError::InsufficientData {
            required: 1,
            available: 0,
        });
    }
    if samples.iter().any(|s| !s.is_finite()) {
        return Err(TrajectoryError::NonFinite);
    }
    let (mut lo, mut hi) = extremes(samples.iter().copied());
    if hi <= lo {
        // All samples identical: widen symmetrically.
        let pad = lo.abs().max(1.0) * 1e-6;
        lo -= pad;
        hi += pad;
    }
    Ok((lo, hi))
}

/// Smallest and largest of `samples` (`(∞, −∞)` when empty).
pub(crate) fn extremes(samples: impl Iterator<Item = f64>) -> (f64, f64) {
    samples.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
        (lo.min(s), hi.max(s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The inverse CDF is monotone and stays within the range.
        #[test]
        fn inverse_cdf_is_monotone_and_bounded(
            samples in prop::collection::vec(-50.0f64..50.0, 1..200),
            bins in 1usize..40,
        ) {
            let h = Histogram::auto_range(&samples, bins).unwrap();
            let mut prev = f64::NEG_INFINITY;
            for k in 0..=50 {
                let v = h.inverse_cdf(k as f64 / 50.0);
                prop_assert!(v >= prev - 1e-9);
                prop_assert!(v >= h.min - 1e-9 && v <= h.max + 1e-9);
                prev = v;
            }
        }
    }

    #[test]
    fn counts_land_in_correct_bins() {
        let h = Histogram::from_samples(&[0.05, 0.15, 0.95, 0.95], 10, 0.0, 1.0).unwrap();
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[9], 2);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn boundary_sample_goes_to_last_bin() {
        let h = Histogram::from_samples(&[1.0], 4, 0.0, 1.0).unwrap();
        assert_eq!(h.counts[3], 1);
    }

    #[test]
    fn out_of_range_samples_clamp() {
        let h = Histogram::from_samples(&[-5.0, 5.0], 2, 0.0, 1.0).unwrap();
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
    }

    #[test]
    fn masses_sum_to_one() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::from_samples(&samples, 7, 0.0, 1.0).unwrap();
        let sum: f64 = (0..7).map(|i| h.mass(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_cdf_endpoints_and_median() {
        let samples: Vec<f64> = (0..1001).map(|i| i as f64 / 1000.0).collect();
        let h = Histogram::from_samples(&samples, 50, 0.0, 1.0).unwrap();
        assert!(h.inverse_cdf(0.0) <= h.inverse_cdf(0.5));
        assert!(h.inverse_cdf(0.5) <= h.inverse_cdf(1.0));
        assert!((h.inverse_cdf(0.5) - 0.5).abs() < 0.05);
        assert!((h.inverse_cdf(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_cdf_is_monotone() {
        let samples = vec![0.1, 0.1, 0.2, 0.7, 0.9, 0.9, 0.9];
        let h = Histogram::from_samples(&samples, 10, 0.0, 1.0).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=100 {
            let v = h.inverse_cdf(k as f64 / 100.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn inverse_cdf_respects_mass_concentration() {
        // 90% of the mass at ~0.9: the 0.5-quantile must be in the top bin.
        let mut samples = vec![0.9; 90];
        samples.extend(vec![0.1; 10]);
        let h = Histogram::from_samples(&samples, 10, 0.0, 1.0).unwrap();
        assert!(h.inverse_cdf(0.5) > 0.8);
    }

    #[test]
    fn auto_range_handles_identical_samples() {
        let h = Histogram::auto_range(&[3.0, 3.0, 3.0], 5).unwrap();
        assert!(h.min < 3.0 && h.max > 3.0);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::from_samples(&[], 4, 0.0, 1.0).unwrap();
        assert_eq!(h.total, 0);
        assert_eq!(h.mass(0), 0.0);
        assert_eq!(h.inverse_cdf(0.5), 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(Histogram::from_samples(&[1.0], 0, 0.0, 1.0).is_err());
        assert!(Histogram::from_samples(&[1.0], 4, 1.0, 0.0).is_err());
        assert!(Histogram::from_samples(&[f64::NAN], 4, 0.0, 1.0).is_err());
        assert!(Histogram::auto_range(&[], 4).is_err());
    }

    #[test]
    fn skewness_sign_matches_distribution_shape() {
        // Right-skewed sample (mass near 0, tail to 1).
        let mut right = vec![0.05; 50];
        right.extend((0..10).map(|i| 0.1 + i as f64 * 0.09));
        let h = Histogram::from_samples(&right, 20, 0.0, 1.0).unwrap();
        assert!(h.skewness() > 0.5, "skewness = {}", h.skewness());

        // Symmetric sample.
        let sym: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let h = Histogram::from_samples(&sym, 20, 0.0, 1.0).unwrap();
        assert!(h.skewness().abs() < 0.1);
    }
}
